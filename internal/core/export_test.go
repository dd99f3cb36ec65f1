package core

import "fmt"

// WithMiniBatch returns c with its work-distribution unit set to n
// embeddings, so a test can split one parent's children across workers.
func WithMiniBatch(c Config, n int) Config {
	c.miniBatch = n
	return c
}

// InspectChunkPool draws up to n chunks out of the process-wide pool (they are
// not put back) and reports how many of them had served a run before, and for
// each that is not fit for reuse what is wrong with it: an entry of a
// pointer-bearing column still set anywhere in its capacity, a batch still
// open, or a retired batch holding an error.
func InspectChunkPool(n int) (recycled int, dirty []string) {
	for i := 0; i < n; i++ {
		c := chunkPool.Get().(*chunk)
		if cap(c.vertex) > 0 {
			recycled++
		}
		if c.len() != 0 || len(c.vertex) != 0 || len(c.lists) != 0 || len(c.inter) != 0 {
			dirty = append(dirty, fmt.Sprintf("chunk %d not empty", i))
		}
		for j, l := range c.lists[:cap(c.lists)] {
			if l != nil {
				dirty = append(dirty, fmt.Sprintf("chunk %d: lists[%d] still set", i, j))
				break
			}
		}
		for j, l := range c.inter[:cap(c.inter)] {
			if l != nil {
				dirty = append(dirty, fmt.Sprintf("chunk %d: inter[%d] still set", i, j))
				break
			}
		}
		if len(c.batches) != 0 {
			dirty = append(dirty, fmt.Sprintf("chunk %d: %d batches open", i, len(c.batches)))
		}
		for j, b := range c.batchStore {
			if b.err != nil {
				dirty = append(dirty, fmt.Sprintf("chunk %d: retired batch %d holds an error", i, j))
			}
		}
	}
	return recycled, dirty
}

// DenseRowPeak returns the most row words one level-1 chunk of a dense plan
// held during e's runs.
func DenseRowPeak(e *Engine) int { return e.rowPeak }

// MarkWords returns the words each of e's workers holds in its mark set. It
// reads the workers of a run in progress, so call it between root ranges
// (Config.OnRangeDone).
func MarkWords(e *Engine) []int {
	words := make([]int, len(e.workers))
	for i, w := range e.workers {
		words[i] = w.runs.Marks.Words()
	}
	return words
}
