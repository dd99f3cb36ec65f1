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
// loop nest the binomial a count-only run folds a star tail into, and for a
// dense plan the row each level-1 embedding builds and the word ANDs that
// replace the levels below it. It is meant for humans inspecting what a
// client system compiled; `khuzdul -explain` prints it.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern: %v\n", p.Pattern)
	fmt.Fprintf(&sb, "system:  %v   matching order: %v   |Aut| = %d\n", p.Style, p.Order, p.AutSize)
	if p.Induced {
		sb.WriteString("mode:    induced (motif semantics)\n")
	} else {
		sb.WriteString("mode:    non-induced\n")
	}
	if p.Labeled() {
		fmt.Fprintf(&sb, "labels:  %v (per position)\n", p.Labels)
	}
	if p.EdgeLabeled {
		sb.WriteString("edge labels: constrained per level\n")
	}
	restricted := false
	for _, lv := range p.Levels {
		restricted = restricted || len(lv.Bounds) > 0
	}
	switch {
	case !restricted:
		sb.WriteString("restrictions: none\n")
	case p.Descending:
		fmt.Fprintf(&sb, "restrictions: descending (Σdown² = %.4g < Σup² = %.4g)\n", p.DownSq, p.UpSq)
	default:
		fmt.Fprintf(&sb, "restrictions: ascending (Σup² = %.4g ≤ Σdown² = %.4g)\n", p.UpSq, p.DownSq)
	}
	indent := func(n int) string { return strings.Repeat("  ", n+1) }
	sb.WriteString("for v0 in V:")
	if p.Levels[0].NeedsList {
		sb.WriteString("    # keep N(v0) — active")
	}
	sb.WriteByte('\n')
	for i := 1; i < p.K; i++ {
		lv := &p.Levels[i]
		if p.Dense && i >= 2 {
			p.explainDense(&sb, i, indent(i-1))
			continue
		}
		var set string
		switch {
		case lv.ReuseSame:
			set = fmt.Sprintf("R%d  # reuse parent intersection (VCS)", i-1)
		case lv.ReuseExtend:
			set = fmt.Sprintf("R%d ∩ N(v%d)  # extend parent intersection (VCS)", i-1, i-1)
		default:
			terms := make([]string, len(lv.Intersect))
			for j, pos := range lv.Intersect {
				terms[j] = fmt.Sprintf("N(v%d)", pos)
			}
			set = strings.Join(terms, " ∩ ")
		}
		if p.Induced && len(lv.Exclude) > 0 {
			subs := make([]string, len(lv.Exclude))
			for j, pos := range lv.Exclude {
				subs[j] = fmt.Sprintf("N(v%d)", pos)
			}
			set += " \\ (" + strings.Join(subs, " ∪ ") + ")"
		}
		fmt.Fprintf(&sb, "%sfor v%d in %s:", indent(i-1), i, set)
		// The bounds clip every input list before the kernel reads it, unless
		// the raw intersection is stored for levels that may reach outside
		// them; then they clip it on the way out.
		clip := "clip"
		if lv.StoreInter && !lv.ClipStore {
			clip = "clip after store"
		}
		notes := p.boundNotes(i, clip)
		if lv.CountOnly {
			notes = append(notes, "count-only")
		}
		if lv.Probe {
			notes = append(notes, "probe marked "+p.sharedOperand(i))
		}
		if lv.FilterOnce {
			notes = append(notes, fmt.Sprintf("filter %s by label %d once per run", p.sharedOperand(i), p.PosLabel(i)))
		}
		if lv.StoreInter {
			notes = append(notes, fmt.Sprintf("store R%d", i))
		}
		if lv.NeedsList {
			notes = append(notes, fmt.Sprintf("fetch N(v%d) — active", i))
		}
		if len(notes) > 0 {
			sb.WriteString("    # " + strings.Join(notes, ", "))
		}
		sb.WriteByte('\n')
		if p.Dense && i == 1 {
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
	if p.Fold > 0 {
		f := p.FoldLevel()
		fmt.Fprintf(&sb, "%scount C(%s, %d) per %s — levels %d–%d folded (count-only)\n",
			indent(f-1), p.foldSetSize(), p.Fold, prefixTuple(f), f, p.K-1)
	}
	sb.WriteString("final level needs no edge lists: candidates are counted directly\n")
	fmt.Fprintf(&sb, "estimated cost: %.3g\n", p.EstCost)
	return sb.String()
}

// sharedOperand names the set a Probe level marks, or a FilterOnce level
// filters: the parent's stored intersection, or the list at Intersect[0].
func (p *Plan) sharedOperand(i int) string {
	lv := &p.Levels[i]
	if p.VCS && (lv.ReuseExtend || lv.ReuseSame) {
		return fmt.Sprintf("R%d", i-1)
	}
	return fmt.Sprintf("N(v%d)", lv.Intersect[0])
}

// explainDense renders level i ≥ 2 of a dense plan: the AND of the rows of its
// Intersect positions past 0 (all of S when none), its bounds as an index
// mask, and the popcount that ends a count-only run.
func (p *Plan) explainDense(sb *strings.Builder, i int, ind string) {
	lv := &p.Levels[i]
	var rows []string
	for _, q := range lv.Intersect {
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
	for _, q := range lv.Exclude {
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
	if p.Descending {
		return "<", "ub"
	}
	return ">", "lb"
}

// boundNotes renders level i's restrictions, then how they apply: "clip",
// "clip after store" or a dense level's "mask".
func (p *Plan) boundNotes(i int, apply string) []string {
	bounds := p.Levels[i].Bounds
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
// tail level's candidate set — the anchor's list, inside that level's bounds,
// without the earlier matched vertices.
func (p *Plan) foldSetSize() string {
	f := p.FoldLevel()
	lv := &p.Levels[f]
	anchor := lv.Intersect[0]
	op, _ := p.boundSyms()
	var conds []string
	for _, a := range lv.Bounds {
		conds = append(conds, fmt.Sprintf("v %s v%d", op, a))
	}
	for q := 0; q < f; q++ {
		if q != anchor {
			conds = append(conds, fmt.Sprintf("v ≠ v%d", q))
		}
	}
	if len(conds) == 0 {
		return fmt.Sprintf("|N(v%d)|", anchor)
	}
	return fmt.Sprintf("|{v in N(v%d): %s}|", anchor, strings.Join(conds, ", "))
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
