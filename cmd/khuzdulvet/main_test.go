package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"

	"khuzdul/internal/analysis"
)

// TestSelectAnalyzers pins the -run filter: suite order is preserved,
// duplicates collapse, whitespace is tolerated, and unknown names are
// rejected rather than silently skipped.
func TestSelectAnalyzers(t *testing.T) {
	suite := analysis.Suite()

	all, err := selectAnalyzers(suite, "")
	if err != nil || len(all) != len(suite) {
		t.Fatalf("empty spec: got %d analyzers, err %v; want the full suite", len(all), err)
	}

	got, err := selectAnalyzers(suite, " timerstop, lockorder ,timerstop")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	var names []string
	for _, a := range got {
		names = append(names, a.Name)
	}
	// Suite order, not spec order: lockorder precedes timerstop.
	if strings.Join(names, ",") != "lockorder,timerstop" {
		t.Fatalf("got %v, want [lockorder timerstop]", names)
	}

	if _, err := selectAnalyzers(suite, "lockorder,nosuch"); err == nil ||
		!strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown analyzer: got err %v, want it named", err)
	}
	if _, err := selectAnalyzers(suite, " , "); err == nil {
		t.Fatalf("blank spec items must not select an empty set silently")
	}
}

// TestRunListAndFilter drives the CLI entry point end to end: -list prints
// the pinned roster, one analyzer per line with its doc, in suite order, -run
// with an unknown or retired name exits
// 2, and a filtered -json run over the real tree is clean and carries the
// program-build timing line followed by one line per selected analyzer.
func TestRunListAndFilter(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d, stderr %q", code, errOut.String())
	}
	roster := []string{"errclass", "lockorder", "timerstop"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(roster) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(roster), out.String())
	}
	for i, a := range analysis.Suite() {
		if fields := strings.Fields(lines[i]); fields[0] != roster[i] || !strings.HasSuffix(lines[i], a.Doc) {
			t.Errorf("-list line %d = %q, want %s with its doc", i, lines[i], roster[i])
		}
	}

	// Retired analyzers (DESIGN.md names what catches each one's seeded
	// defect now) are unknown names like any other.
	for _, name := range []string{"nosuch", "atomicmix", "framecase", "sleepban", "cancelpoll", "locksend", "maporder", "guardfield",
		"hotalloc", "wirebound", "metriclive", "wirecodec"} {
		out.Reset()
		errOut.Reset()
		if code := run([]string{"-run", name, "./..."}, &out, &errOut); code != 2 {
			t.Fatalf("-run %s exit = %d, want 2; stderr %q", name, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), name) {
			t.Fatalf("-run %s stderr does not name the analyzer: %q", name, errOut.String())
		}
	}

	if testing.Short() {
		t.Skip("skipping whole-module load in short mode")
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-json", "-run", "errclass,timerstop"}, &out, &errOut); code != 0 {
		t.Fatalf("filtered run exit = %d, stderr %q, stdout %q", code, errOut.String(), out.String())
	}
	var timings []jsonTiming
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var tm jsonTiming
		if err := json.Unmarshal(sc.Bytes(), &tm); err != nil {
			t.Fatalf("bad -json line %q: %v", sc.Text(), err)
		}
		if tm.ElapsedMs < 0 {
			t.Errorf("negative elapsed for %q: %v", tm.Analyzer, tm.ElapsedMs)
		}
		timings = append(timings, tm)
	}
	if len(timings) != 3 || timings[0].Analyzer != "program" ||
		timings[1].Analyzer != "errclass" || timings[2].Analyzer != "timerstop" {
		t.Fatalf("timing lines = %+v, want program, errclass, timerstop", timings)
	}
	if timings[0].ElapsedMs <= 0 {
		t.Errorf("program build reported %v ms; it walks every body of the module", timings[0].ElapsedMs)
	}
}
