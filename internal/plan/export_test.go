package plan

import "khuzdul/internal/pattern"

// BuildForOrder builds the plan that matches pat in one fixed order, its
// bounds descending when descending is set, as Compile builds the order it
// picks: the matching, then derive.
func BuildForOrder(pat *pattern.Pattern, order []int, opts Options, descending bool) (*Plan, error) {
	p, err := buildForOrder(pat, pattern.Automorphisms(pat), order, opts, descending)
	if err != nil {
		return nil, err
	}
	p.derive()
	return p, nil
}
