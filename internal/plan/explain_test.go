package plan

import (
	"slices"
	"strings"
	"testing"

	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
)

// TestExplainCliqueSchedule pins the whole rendering of the 4-clique, a dense
// plan: level 1 builds v1's row over S = R1, and levels 2 and 3 are word ANDs
// of rows under their bound masks, the last one popcounted.
func TestExplainCliqueSchedule(t *testing.T) {
	pl := MustCompile(pattern.Clique(4), Options{Style: StyleGraphPi})
	want := `pattern: pattern{n=4 edges=0-1 0-2 0-3 1-2 1-3 2-3}
system:  graphpi   matching order: [0 1 2 3]   |Aut| = 24
mode:    non-induced
restrictions: ascending (Σup² = 0 ≤ Σdown² = 0)
for v0 in V:    # keep N(v0) — active
  for v1 in N(v0):    # v1 > v0, clip lb=[0], store R1, fetch N(v1) — active
    row(v1) = bits of R1 ∩ N(v1) over S = R1, above v1  # reuse parent intersection (VCS)    # dense suffix: levels 2–3 are word ANDs of rows, ⌈|S|/64⌉ words each, no list fetched past v1
    for v2 in row(v1):    # v2 > v0, v2 > v1, mask lb=[0 1]
      for v3 in row(v1) & row(v2):    # v3 > v0, v3 > v1, v3 > v2, mask lb=[0 1 2], popcount (count-only)
        emit(v0..v3)
final level needs no edge lists: candidates are counted directly
estimated cost: 2.83e+07
`
	if got := pl.Explain(); got != want {
		t.Errorf("Explain =\n%s\nwant\n%s", got, want)
	}
}

func TestExplainInducedShowsSubtraction(t *testing.T) {
	pl := MustCompile(pattern.CycleP(4), Options{Style: StyleGraphPi, Induced: true})
	s := pl.Explain()
	if !strings.Contains(s, "induced") {
		t.Errorf("Explain missing induced mode:\n%s", s)
	}
	if !strings.Contains(s, "\\") {
		t.Errorf("Explain missing subtraction for induced cycle:\n%s", s)
	}
}

func TestExplainLabeled(t *testing.T) {
	pat := pattern.PathP(3).WithLabels([]graph.Label{1, 2, 3})
	pl := MustCompile(pat, Options{Style: StyleAutomine})
	if s := pl.Explain(); !strings.Contains(s, "labels:") {
		t.Errorf("Explain missing labels:\n%s", s)
	}
	epat := pattern.Triangle()
	epat.SetEdgeLabel(0, 1, 1)
	epat.SetEdgeLabel(1, 2, 1)
	epat.SetEdgeLabel(0, 2, 1)
	epl := MustCompile(epat, Options{Style: StyleAutomine})
	if s := epl.Explain(); !strings.Contains(s, "edge labels") {
		t.Errorf("Explain missing edge labels:\n%s", s)
	}
}

// TestExplainDirection pins the whole rendering of a triangle plan compiled
// against a graph whose hubs sit at the low IDs: the restrictions point down,
// the clip is an upper bound, the two sums that decided it are printed, and
// the last level marks R1 once per parent for its children to probe.
func TestExplainDirection(t *testing.T) {
	g := graph.Star(11)
	pl := MustCompile(pattern.Triangle(), Options{Style: StyleAutomine, Stats: StatsOf(g)})
	want := `pattern: pattern{n=3 edges=0-1 0-2 1-2}
system:  automine   matching order: [0 1 2]   |Aut| = 6
mode:    non-induced
restrictions: descending (Σdown² = 10 < Σup² = 100)
for v0 in V:    # keep N(v0) — active
  for v1 in N(v0):    # v1 < v0, clip ub=[0], store R1, fetch N(v1) — active
    for v2 in R1 ∩ N(v1)  # extend parent intersection (VCS):    # v2 < v0, v2 < v1, clip ub=[0 1], count-only, probe marked R1
      emit(v0..v2)
final level needs no edge lists: candidates are counted directly
`
	got := pl.Explain()
	if i := strings.Index(got, "estimated cost:"); i >= 0 {
		got = got[:i]
	}
	if got != want {
		t.Errorf("Explain =\n%s\nwant\n%s", got, want)
	}
	if s := pl.String(); !strings.Contains(s, " descending ") || !strings.Contains(s, "ub=[0 1] count-only probe reuse=extend") {
		t.Errorf("String missing direction, ub=, count-only or probe: %s", s)
	}
	// A plan with no restrictions has no direction to report.
	wedge := pattern.PathP(3).WithLabels([]graph.Label{1, 2, 3})
	if s := MustCompile(wedge, Options{Style: StyleAutomine, Stats: StatsOf(g)}).Explain(); !strings.Contains(s, "restrictions: none") {
		t.Errorf("Explain of an asymmetric pattern:\n%s", s)
	}
}

// TestExplainCountOnlyNote: the closing note appears exactly where a
// count-only run counts the last level — not after a labeled level, nor
// after an induced level with two subtractions, both of which materialize.
func TestExplainCountOnlyNote(t *testing.T) {
	for _, c := range []struct {
		pat  *pattern.Pattern
		opts Options
		want bool
	}{
		{pattern.Triangle(), Options{Style: StyleAutomine}, true},
		{pattern.StarP(4), Options{Style: StyleGraphPi, Induced: true}, false},
		{pattern.PathP(3).WithLabels([]graph.Label{1, 2, 3}), Options{Style: StyleAutomine}, false},
	} {
		s := MustCompile(c.pat, c.opts).Explain()
		if got := strings.Contains(s, "counted directly"); got != c.want {
			t.Errorf("%v: count-only note %v, want %v:\n%s", c.pat, got, c.want, s)
		}
	}
}

// TestExplainInducedReuse pins an induced plan whose levels reuse the parent's
// stored set: the subtraction belongs to the set expression, before the
// reuse annotation.
func TestExplainInducedReuse(t *testing.T) {
	pl := MustCompile(pattern.StarP(4), Options{Style: StyleGraphPi, Induced: true})
	want := `pattern: pattern{n=4 edges=0-1 0-2 0-3}
system:  graphpi   matching order: [0 1 2 3]   |Aut| = 6
mode:    induced (motif semantics)
restrictions: ascending (Σup² = 0 ≤ Σdown² = 0)
for v0 in V:    # keep N(v0) — active
  for v1 in N(v0):    # store R1, fetch N(v1) — active
    for v2 in R1 \ (N(v1))  # reuse parent intersection (VCS):    # v2 > v1, clip lb=[1], store R2, fetch N(v2) — active
      for v3 in R2 \ (N(v1) ∪ N(v2))  # reuse parent intersection (VCS):    # v3 > v1, v3 > v2, clip lb=[1 2]
        emit(v0..v3)
`
	got := pl.Explain()
	if i := strings.Index(got, "estimated cost:"); i >= 0 {
		got = got[:i]
	}
	if got != want {
		t.Errorf("Explain =\n%s\nwant\n%s", got, want)
	}
}

// TestExplainFold pins the rendering of the two plans 3-MC and 4-MC fold
// whole, and of the diamond, whose tail shares a set of two lists: the loop
// nest the materializing path runs stays, and where it ends stands the
// binomial a count-only run replaces it with, over the set the fold level
// counts.
func TestExplainFold(t *testing.T) {
	for _, c := range []struct {
		pat  *pattern.Pattern
		want string
		str  string
	}{
		{pattern.PathP(3), `pattern: pattern{n=3 edges=0-1 1-2}
system:  automine   matching order: [1 0 2]   |Aut| = 2
mode:    non-induced
restrictions: ascending (Σup² = 0 ≤ Σdown² = 0)
for v0 in V:    # keep N(v0) — active
  for v1 in N(v0):    # store R1
    for v2 in R1  # reuse parent intersection (VCS):    # v2 > v1, clip lb=[1], count-only
      emit(v0..v2)
  count C(|N(v0)|, 2) per v0 — levels 1–2 folded (count-only)
final level needs no edge lists: candidates are counted directly
`, " aut=2 fold=2 L1("},
		{pattern.StarP(4), `pattern: pattern{n=4 edges=0-1 0-2 0-3}
system:  automine   matching order: [0 1 2 3]   |Aut| = 6
mode:    non-induced
restrictions: ascending (Σup² = 0 ≤ Σdown² = 0)
for v0 in V:    # keep N(v0) — active
  for v1 in N(v0):    # store R1
    for v2 in R1  # reuse parent intersection (VCS):    # v2 > v1, clip lb=[1], store R2
      for v3 in R2  # reuse parent intersection (VCS):    # v3 > v1, v3 > v2, clip lb=[1 2], count-only
        emit(v0..v3)
  count C(|N(v0)|, 3) per v0 — levels 1–3 folded (count-only)
final level needs no edge lists: candidates are counted directly
`, " aut=6 fold=3 L1("},
		{pattern.Diamond(), `pattern: pattern{n=4 edges=0-1 0-2 0-3 1-2 1-3}
system:  automine   matching order: [0 1 2 3]   |Aut| = 4
mode:    non-induced
restrictions: ascending (Σup² = 0 ≤ Σdown² = 0)
for v0 in V:    # keep N(v0) — active
  for v1 in N(v0):    # v1 > v0, clip after store lb=[0], store R1, fetch N(v1) — active
    for v2 in R1 ∩ N(v1)  # extend parent intersection (VCS):    # probe marked R1, store R2
      for v3 in R2  # reuse parent intersection (VCS):    # v3 > v2, clip lb=[2], count-only
        emit(v0..v3)
    count C(|R1 ∩ N(v1)|, 2) per (v0, v1) — levels 2–3 folded (count-only)
final level needs no edge lists: candidates are counted directly
`, " aut=4 fold=2 L1("},
	} {
		pl := MustCompile(c.pat, Options{Style: StyleAutomine})
		got := pl.Explain()
		if i := strings.Index(got, "estimated cost:"); i >= 0 {
			got = got[:i]
		}
		if got != c.want {
			t.Errorf("Explain =\n%s\nwant\n%s", got, c.want)
		}
		if s := pl.String(); !strings.Contains(s, c.str) {
			t.Errorf("String missing %q: %s", c.str, s)
		}
	}
	// A fold level past the first names what it excludes; an induced wedge has
	// a Subtract and no fold.
	pendants := pattern.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {0, 4}})
	if s := MustCompile(pendants, Options{Style: StyleAutomine}).Explain(); !strings.Contains(s,
		"      count C(|{v in N(v0): v ≠ v1, v ≠ v2}|, 2) per (v0, v1, v2) — levels 3–4 folded (count-only)\n") {
		t.Errorf("Explain of a triangle with two pendants:\n%s", s)
	}
	if pl := MustCompile(pattern.PathP(3), Options{Style: StyleAutomine, Induced: true}); pl.fold != 0 || strings.Contains(pl.Explain(), "folded") {
		t.Errorf("induced wedge folds: %v", pl)
	}
}

// TestExplainMultiply pins the rendering of the tailed triangle as Automine
// orders it: the last level reads N(v0) alone, which holds v1 and v2, so a
// count-only run ends at level 2, probing R1, and multiplies each count
// there by |N(v0)| − 2. GraphPi orders it [1 2 0 3], where the last level
// reads N(v2) and nothing multiplies.
func TestExplainMultiply(t *testing.T) {
	pl := MustCompile(pattern.TailedTriangle(), Options{Style: StyleAutomine})
	want := `pattern: pattern{n=4 edges=0-1 0-2 0-3 1-2}
system:  automine   matching order: [0 1 2 3]   |Aut| = 2
mode:    non-induced
restrictions: ascending (Σup² = 0 ≤ Σdown² = 0)
for v0 in V:    # keep N(v0) — active
  for v1 in N(v0):    # store R1, fetch N(v1) — active
    for v2 in R1 ∩ N(v1)  # extend parent intersection (VCS):    # v2 > v1, clip lb=[1], probe marked R1
      for v3 in N(v0):    # count-only
        emit(v0..v3)
    count n × (|N(v0)| − 2) per (v0, v1) — n the v2 candidates, level 3 multiplied (count-only)
final level needs no edge lists: candidates are counted directly
`
	got := pl.Explain()
	if i := strings.Index(got, "estimated cost:"); i >= 0 {
		got = got[:i]
	}
	if got != want {
		t.Errorf("Explain =\n%s\nwant\n%s", got, want)
	}
	if s := pl.String(); !strings.Contains(s, " aut=2 multiply L1(") {
		t.Errorf("String missing the multiply token: %s", s)
	}
	gp := MustCompile(pattern.TailedTriangle(), Options{Style: StyleGraphPi})
	if !slices.Equal(gp.Order(), []int{1, 2, 0, 3}) || gp.Multiply() || strings.Contains(gp.Explain(), "multiplied") {
		t.Errorf("GraphPi's tailed triangle: %v", gp)
	}
}
