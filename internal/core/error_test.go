package core_test

import (
	"errors"
	"strings"
	"testing"

	"khuzdul/internal/core"
	"khuzdul/internal/graph"
	"khuzdul/internal/pattern"
	"khuzdul/internal/plan"
)

// failingSource serves local data but fails every remote fetch, to exercise
// the engine's error propagation through batches and process recursion.
type failingSource struct {
	g   *graph.Graph
	err error
}

func (s *failingSource) Classify(v graph.VertexID) (core.Locality, int) {
	if v%2 == 0 {
		return core.LocalityLocal, 0
	}
	return core.LocalityRemote, 1
}

func (s *failingSource) LocalList(v graph.VertexID) []graph.VertexID { return s.g.Neighbors(v) }

func (s *failingSource) CrossSocketList(v graph.VertexID) []graph.VertexID {
	panic("no sockets")
}

func (s *failingSource) Fetch(owner int, ids []graph.VertexID) ([][]graph.VertexID, error) {
	return nil, s.err
}

func (s *failingSource) NumNodes() int  { return 2 }
func (s *failingSource) LocalNode() int { return 0 }

func (s *failingSource) Roots() []graph.VertexID {
	var out []graph.VertexID
	for v := 0; v < s.g.NumVertices(); v += 2 {
		out = append(out, graph.VertexID(v))
	}
	return out
}

func TestEngineSurfacesFetchErrors(t *testing.T) {
	g := graph.RMATDefault(100, 600, 77)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{Style: plan.StyleGraphPi})
	wantErr := errors.New("fabric down")
	src := &failingSource{g: g, err: wantErr}
	eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, &core.CountSink{}, core.Config{Threads: 2})
	err := eng.Run()
	if err == nil {
		t.Fatal("engine swallowed the fetch error")
	}
	if !errors.Is(err, wantErr) && !strings.Contains(err.Error(), "fabric down") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestEngineStringer(t *testing.T) {
	g := graph.Path(4)
	pl := plan.MustCompile(pattern.PathP(2), plan.Options{})
	src := &failingSource{g: g}
	eng := core.NewEngine(core.NewPlanExtender(pl, nil), src, &core.CountSink{}, core.Config{})
	if eng.String() == "" {
		t.Fatal("empty engine string")
	}
	if eng.Metrics() == nil {
		t.Fatal("nil metrics")
	}
}
