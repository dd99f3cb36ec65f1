package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan as pseudo-code in the paper's nested-loop style
// (Figure 1/Figure 5): one loop per level with its set operations, symmetry
// restrictions and the clip they push below the kernels, reuse annotations,
// count-only marking, the operand a probed level marks, the set a labeled
// level filters once per run and active-list bookkeeping, plus — once — the
// direction the restrictions point and the skew sums that chose it, below the
// loop nest the binomial a count-only run folds a tail into or the product
// it multiplies the last level into, and for a dense plan the row each
// level-1 embedding builds and the word ANDs that replace the levels below
// it. It is meant for humans inspecting what a client system compiled;
// `khuzdul -explain` prints it.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern: %v\n", p.Pattern)
	fmt.Fprintf(&sb, "system:  %v   matching order: %v   |Aut| = %d\n", p.Style, p.order, p.AutSize)
	if p.induced {
		sb.WriteString("mode:    induced (motif semantics)\n")
	} else {
		sb.WriteString("mode:    non-induced\n")
	}
	if p.Labeled() {
		fmt.Fprintf(&sb, "labels:  %v (per position)\n", p.labels)
	}
	if p.edgeLabeled {
		sb.WriteString("edge labels: constrained per level\n")
	}
	restricted := false
	for _, lv := range p.levels {
		restricted = restricted || len(lv.bounds) > 0
	}
	switch {
	case !restricted:
		sb.WriteString("restrictions: none\n")
	case p.descending:
		fmt.Fprintf(&sb, "restrictions: descending (Σdown² = %.4g < Σup² = %.4g)\n", p.DownSq, p.UpSq)
	default:
		fmt.Fprintf(&sb, "restrictions: ascending (Σup² = %.4g ≤ Σdown² = %.4g)\n", p.UpSq, p.DownSq)
	}
	indent := func(n int) string { return strings.Repeat("  ", n+1) }
	sb.WriteString("for v0 in V:")
	if p.levels[0].needsList {
		sb.WriteString("    # keep N(v0) — active")
	}
	sb.WriteByte('\n')
	for i := 1; i < p.K; i++ {
		lv := &p.levels[i]
		if p.dense && i >= 2 {
			p.explainDense(&sb, i, indent(i-1))
			continue
		}
		set, reuse := p.rawSet(i), ""
		switch lv.reuse {
		case reuseSame:
			reuse = "reuse"
		case reuseExtend:
			reuse = "extend"
		}
		if p.induced && len(lv.exclude) > 0 {
			subs := make([]string, len(lv.exclude))
			for j, pos := range lv.exclude {
				subs[j] = fmt.Sprintf("N(v%d)", pos)
			}
			set += " \\ (" + strings.Join(subs, " ∪ ") + ")"
		}
		if reuse != "" {
			set += "  # " + reuse + " parent intersection (VCS)"
		}
		fmt.Fprintf(&sb, "%sfor v%d in %s:", indent(i-1), i, set)
		// The bounds clip every input list before the kernel reads it, unless
		// the raw intersection is stored for levels that may reach outside
		// them; then they clip it on the way out.
		clip := "clip"
		if lv.storeInter && !lv.clipStore {
			clip = "clip after store"
		}
		notes := p.boundNotes(i, clip)
		if lv.countOnly {
			notes = append(notes, "count-only")
		}
		if lv.probe {
			notes = append(notes, "probe marked "+p.sharedOperand(i))
		}
		if lv.filterOnce {
			notes = append(notes, fmt.Sprintf("filter %s by label %d once per run", p.sharedOperand(i), p.PosLabel(i)))
		}
		if lv.storeInter {
			notes = append(notes, fmt.Sprintf("store R%d", i))
		}
		if lv.needsList {
			notes = append(notes, fmt.Sprintf("fetch N(v%d) — active", i))
		}
		if len(notes) > 0 {
			sb.WriteString("    # " + strings.Join(notes, ", "))
		}
		sb.WriteByte('\n')
		if p.dense && i == 1 {
			side := ""
			switch p.denseRowSide() {
			case 1:
				side = ", above v1"
			case -1:
				side = ", below v1"
			}
			fmt.Fprintf(&sb, "%srow(v1) = bits of R1 ∩ N(v1) over S = R1%s  # reuse parent intersection (VCS)    # dense suffix: levels 2–%d are word ANDs of rows, ⌈|S|/64⌉ words each, no list fetched past v1\n",
				indent(1), side, p.K-1)
		}
	}
	fmt.Fprintf(&sb, "%semit(v0..v%d)\n", indent(p.K-1), p.K-1)
	if p.fold > 0 {
		f := p.FoldLevel()
		fmt.Fprintf(&sb, "%scount C(%s, %d) per %s — levels %d–%d folded (count-only)\n",
			indent(f-1), p.foldSetSize(), p.fold, prefixTuple(f), f, p.K-1)
	}
	if p.multiply {
		last := &p.levels[p.K-1]
		fmt.Fprintf(&sb, "%scount n × (|%s| − %d) per %s — n the v%d candidates, level %d multiplied (count-only)\n",
			indent(p.K-3), listsSet(last.intersect), len(last.exclude), prefixTuple(p.K-2), p.K-2, p.K-1)
	}
	if p.levels[p.K-1].countOnly || p.fold > 0 || p.dense {
		sb.WriteString("final level needs no edge lists: candidates are counted directly\n")
	}
	fmt.Fprintf(&sb, "estimated cost: %.3g\n", p.EstCost)
	return sb.String()
}

// rawSet renders level i's raw set expression: the parent's stored
// intersection, that set extended by N(v_{i−1}), or the intersection of the
// level's lists.
func (p *Plan) rawSet(i int) string {
	switch p.levels[i].reuse {
	case reuseSame:
		return fmt.Sprintf("R%d", i-1)
	case reuseExtend:
		return fmt.Sprintf("R%d ∩ N(v%d)", i-1, i-1)
	}
	return listsSet(p.levels[i].intersect)
}

// listsSet renders the intersection of the edge lists at the given positions.
func listsSet(positions []int) string {
	terms := make([]string, len(positions))
	for j, pos := range positions {
		terms[j] = fmt.Sprintf("N(v%d)", pos)
	}
	return strings.Join(terms, " ∩ ")
}

// sharedOperand names the set a Probe level marks, or a FilterOnce level
// filters: the parent's stored intersection, or the list at intersect[0].
func (p *Plan) sharedOperand(i int) string {
	lv := &p.levels[i]
	if lv.reuse != reuseNone {
		return fmt.Sprintf("R%d", i-1)
	}
	return fmt.Sprintf("N(v%d)", lv.intersect[0])
}

// explainDense renders level i ≥ 2 of a dense plan: the AND of the rows of its
// intersect positions past 0 (all of S when none), its bounds as an index
// mask, and the popcount that ends a count-only run.
func (p *Plan) explainDense(sb *strings.Builder, i int, ind string) {
	lv := &p.levels[i]
	var rows []string
	for _, q := range lv.intersect {
		if q > 0 {
			rows = append(rows, fmt.Sprintf("row(v%d)", q))
		}
	}
	set := "S"
	if len(rows) > 0 {
		set = strings.Join(rows, " & ")
	}
	fmt.Fprintf(sb, "%sfor v%d in %s:", ind, i, set)
	notes := p.boundNotes(i, "mask")
	for _, q := range lv.exclude {
		notes = append(notes, fmt.Sprintf("clear v%d", q))
	}
	if i == p.K-1 {
		notes = append(notes, "popcount (count-only)")
	}
	if len(notes) > 0 {
		sb.WriteString("    # " + strings.Join(notes, ", "))
	}
	sb.WriteByte('\n')
}

// boundSyms returns how the plan's bounds render: the comparison a bound
// makes and the key its position list goes by.
func (p *Plan) boundSyms() (op, key string) {
	if p.descending {
		return "<", "ub"
	}
	return ">", "lb"
}

// boundNotes renders level i's restrictions, then how they apply: "clip",
// "clip after store" or a dense level's "mask".
func (p *Plan) boundNotes(i int, apply string) []string {
	bounds := p.levels[i].bounds
	if len(bounds) == 0 {
		return nil
	}
	op, key := p.boundSyms()
	var notes []string
	for _, a := range bounds {
		notes = append(notes, fmt.Sprintf("v%d %s v%d", i, op, a))
	}
	return append(notes, fmt.Sprintf("%s %s=%v", apply, key, bounds))
}

// foldSetSize renders the n of a folded plan's C(n, r): the size of the first
// tail level's candidate set — the one list it reads (a star tail's anchor),
// else its raw set expression, inside that level's bounds, without the
// earlier matched vertices it excludes.
func (p *Plan) foldSetSize() string {
	f := p.FoldLevel()
	lv := &p.levels[f]
	set := fmt.Sprintf("N(v%d)", lv.intersect[0])
	if len(lv.intersect) > 1 {
		set = p.rawSet(f)
	}
	op, _ := p.boundSyms()
	var conds []string
	for _, a := range lv.bounds {
		conds = append(conds, fmt.Sprintf("v %s v%d", op, a))
	}
	for _, q := range lv.exclude {
		conds = append(conds, fmt.Sprintf("v ≠ v%d", q))
	}
	if len(conds) == 0 {
		return "|" + set + "|"
	}
	return fmt.Sprintf("|{v in %s: %s}|", set, strings.Join(conds, ", "))
}

// prefixTuple renders the matched prefix before level f: "v0" or "(v0, v1)".
func prefixTuple(f int) string {
	if f == 1 {
		return "v0"
	}
	vs := make([]string, f)
	for i := range vs {
		vs[i] = fmt.Sprintf("v%d", i)
	}
	return "(" + strings.Join(vs, ", ") + ")"
}
