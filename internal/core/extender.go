// Package core is the Khuzdul distributed execution engine — the paper's
// primary contribution. It realizes the extendable-embedding abstraction:
// fine-grained tasks, each extending one partially-constructed embedding by
// one vertex given its active edge lists, scheduled with a BFS-DFS hybrid
// over fixed-size chunks (§4), circulant communication batching (§4.3), and
// three forms of GPM-specific data reuse (§5): vertical sharing through
// parent pointers, horizontal sharing within a chunk, and the static cache.
//
// The engine is client-agnostic: it runs any Extender — the paper's EXTEND
// function. The client systems, k-Automine and k-GraphPi, are the two
// schedule styles of plan.Compile, and NewPlanExtender runs either's plan; a
// DataSource supplies partitioned graph data.
package core

import (
	"khuzdul/internal/graph"
	"khuzdul/internal/plan"
)

// Extender is the EXTEND interface between a client GPM system and the
// Khuzdul engine (paper §3.2). An extender knows, for each level of the
// embedding tree, how to turn an extendable embedding into its children; the
// engine owns scheduling, communication, and memory.
type Extender interface {
	// K returns the pattern size (number of levels).
	K() int
	// NeedsList reports whether the vertex matched at the given level is an
	// active vertex of a deeper level, i.e. its edge list must be fetched
	// into the extendable embedding.
	NeedsList(level int) bool
	// StoreInter reports whether the raw intersection computed when matching
	// the given level should be stored for reuse by the next level (the
	// paper's vertical computation sharing).
	StoreInter(level int) bool
	// Extend computes the candidate vertices for matching position level,
	// given the embedding's earlier vertices and an accessor for the active
	// edge lists. parentRaw is the intersection stored by the parent level
	// (nil when absent). It returns the candidates and the raw intersection
	// to store when StoreInter(level) is true. Both returned slices may
	// alias scratch storage owned by s. Under a *CountSink the engine puts s
	// in count-only mode (plan.Scratch.SetCountOnly) and takes s's count
	// after every call: any level may then return no candidates and leave
	// their number in s instead — the last level counted without building,
	// the first level of a folded tail counted as a binomial, or level K−2
	// of a multiplied plan counted as a product (plan.Plan.Multiply), the
	// last two ending the walk there.
	Extend(s *plan.Scratch, level int, emb []graph.VertexID, getList func(pos int) []graph.VertexID, parentRaw []graph.VertexID) (cands, raw []graph.VertexID)
	// Dense returns the plan whose dense suffix (plan.Plan.Dense) the engine
	// runs below level 1, or nil when every level extends through Extend.
	// With a dense plan the engine builds one row per level-1 embedding
	// (plan.Plan.DenseRow) and finishes each level-1 parent's children in one
	// pass of word ANDs (plan.Plan.DenseFinish): no level-2 chunk, no level-2
	// fetch, and no Extend call below level 1.
	Dense() *plan.Plan
	// RootOK reports whether a vertex may occupy position 0.
	RootOK(v graph.VertexID) bool
	// NewScratch allocates per-worker scratch storage.
	NewScratch() *plan.Scratch
}

// PlanExtender adapts a compiled plan to the Extender interface. LabelOf
// and EdgeLabelOf may be nil for graphs without the corresponding labels.
type PlanExtender struct {
	Plan    *plan.Plan
	LabelOf plan.LabelFunc
	// EdgeLabelOf filters candidates by edge label for edge-labeled
	// patterns. Labels are treated as replicated metadata in this
	// simulation; a production deployment would ship them alongside
	// fetched edge lists (one extra label word per edge on the wire).
	EdgeLabelOf plan.EdgeLabelFunc
}

// NewPlanExtender wraps a plan as an Extender.
func NewPlanExtender(p *plan.Plan, labelOf plan.LabelFunc) *PlanExtender {
	return &PlanExtender{Plan: p, LabelOf: labelOf}
}

// K implements Extender.
func (e *PlanExtender) K() int { return e.Plan.K }

// NeedsList implements Extender. A dense plan reads no list past level 1:
// deeper levels AND the rows that level-1 embeddings built from theirs.
func (e *PlanExtender) NeedsList(level int) bool {
	return e.Plan.Level(level).NeedsList() && !(e.Plan.Dense() && level >= 2)
}

// StoreInter implements Extender.
func (e *PlanExtender) StoreInter(level int) bool { return e.Plan.Level(level).StoreInter() }

// Extend implements Extender. It runs once per extendable embedding, so it
// is the hottest code in the repository.
func (e *PlanExtender) Extend(s *plan.Scratch, level int, emb []graph.VertexID, getList func(pos int) []graph.VertexID, parentRaw []graph.VertexID) (cands, raw []graph.VertexID) {
	return e.Plan.Extend(s, level, emb, getList, parentRaw, e.LabelOf, e.EdgeLabelOf)
}

// Dense implements Extender.
func (e *PlanExtender) Dense() *plan.Plan {
	if e.Plan.Dense() {
		return e.Plan
	}
	return nil
}

// RootOK implements Extender.
func (e *PlanExtender) RootOK(v graph.VertexID) bool {
	if e.LabelOf == nil || !e.Plan.Labeled() {
		return true
	}
	return e.LabelOf(v) == e.Plan.PosLabel(0)
}

// NewScratch implements Extender.
func (e *PlanExtender) NewScratch() *plan.Scratch { return plan.NewScratch(e.Plan) }
