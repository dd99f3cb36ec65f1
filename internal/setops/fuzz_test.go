package setops

import (
	"encoding/binary"
	"testing"

	"khuzdul/internal/graph"
)

// FuzzCountKernels holds the bounded kernels to the naive loop on two sorted
// lists and a sequence of bounds drawn from the input's bytes. Each list is a
// length byte followed by that many bytes, the first element's value and then
// each gap less one to the next, so short gaps against long ones and lengths
// far apart reach every kernel. Then every five bytes are one pair of bounds:
// a kind byte and two little-endian 16-bit values, lo set by bit 0 (else 0),
// hi set by bit 1 (else NoVertex), the two swapped by bit 2, so that lo =
// NoVertex and hi = 0 are reached too. For each pair in turn CountBounded,
// IntersectBounded and CountSubtract must agree with the loop, and so must
// CountProbe on a mark of either list made once for the whole sequence, whose
// remembered cut the sequence moves forward and back. The probe must enter
// the kernel ledger exactly when CountBounded does, and gallop exactly when
// its clipped list is gallopRatio times the marked one's. The seeds in
// testdata/fuzz/FuzzCountKernels are the runs of a descending and of an
// ascending plan, both bounds and the edge values, an empty list, and the
// clipped lengths on either side of the gallop ratio.
func FuzzCountKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var lists [2][]graph.VertexID
		for i := range lists {
			if len(data) == 0 {
				break
			}
			n := min(int(data[0]), len(data)-1)
			var v graph.VertexID
			for j, g := range data[1 : 1+n] {
				v += graph.VertexID(g) + graph.VertexID(min(j, 1))
				lists[i] = append(lists[i], v)
			}
			data = data[1+n:]
		}
		a, b := lists[0], lists[1]
		var marks [2]Bitmap
		for i, l := range lists {
			if !marks[i].Mark(l) {
				t.Fatalf("Mark refused %v", l)
			}
		}
		for ; len(data) >= 5; data = data[5:] {
			lo, hi := graph.VertexID(0), NoVertex
			if data[0]&1 != 0 {
				lo = graph.VertexID(binary.LittleEndian.Uint16(data[1:]))
			}
			if data[0]&2 != 0 {
				hi = graph.VertexID(binary.LittleEndian.Uint16(data[3:]))
			}
			if data[0]&4 != 0 {
				lo, hi = hi, lo
			}
			want := naiveCount(a, b, lo, hi, false)
			var bounded [NumKernels]uint64
			var d Dispatcher
			if got := (&Dispatcher{Counts: &bounded}).CountBounded(a, b, lo, hi); got != want {
				t.Fatalf("CountBounded(%v, %v, lo=%d, hi=%d) = %d, want %d", a, b, lo, hi, got, want)
			}
			if got := d.IntersectBounded(nil, a, b, lo, hi); len(got) != want || naiveCount(got, a, lo, hi, false) != want || naiveCount(got, b, lo, hi, false) != want {
				t.Fatalf("IntersectBounded(%v, %v, lo=%d, hi=%d) = %v, want %d elements of both", a, b, lo, hi, got, want)
			}
			if got, want := d.CountSubtract(a, b, lo, hi), naiveCount(a, b, lo, hi, true); got != want {
				t.Fatalf("CountSubtract(%v, %v, lo=%d, hi=%d) = %d, want %d", a, b, lo, hi, got, want)
			}
			entered := bounded[KernelMerge] + bounded[KernelGallop]
			for i := range marks {
				var probed [NumKernels]uint64
				pd := Dispatcher{Counts: &probed}
				if got := pd.CountProbe(&marks[i], lists[1-i], lo, hi); got != want {
					t.Fatalf("CountProbe(marked %v, %v, lo=%d, hi=%d) = %d, want %d", lists[i], lists[1-i], lo, hi, got, want)
				}
				x, l := Clip(lists[i], lo, hi), Clip(lists[1-i], lo, hi)
				gallop := len(x) > 0 && len(l) >= gallopRatio*len(x)
				if probed[KernelProbe]+probed[KernelGallop] != entered || probed[KernelMerge] != 0 || (probed[KernelGallop] == 1) != gallop {
					t.Fatalf("CountProbe(marked %v, %v, lo=%d, hi=%d) entered %v, CountBounded %v, want gallop %v", lists[i], lists[1-i], lo, hi, probed, bounded, gallop)
				}
			}
		}
	})
}
