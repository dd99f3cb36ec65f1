// Package comm is the wirebound fixture: integers decoded off the wire must
// be clamped against a constant cap before sizing an allocation, feeding an
// alloc-named helper, or bounding a loop; the reject clamp, the saturate
// clamp, and parameter-passed sizes are the legal near misses. An
// equality-shaped length check is deliberately NOT a clamp.
package comm

import (
	"encoding/binary"
	"errors"
)

const maxEntries = 1 << 20

var errTooBig = errors.New("count exceeds cap")

// decodeUnclamped sizes a make with a raw wire length.
func decodeUnclamped(p []byte) []uint32 {
	n := int(binary.LittleEndian.Uint32(p))
	return make([]uint32, n) // want "make sized by a wire-decoded integer"
}

// decodeBigEndian is just as tainted on the other byte order.
func decodeBigEndian(p []byte) []byte {
	n := int(binary.BigEndian.Uint64(p))
	return make([]byte, n) // want "make sized by a wire-decoded integer"
}

// decodeClamped rejects oversized counts before allocating: clean.
func decodeClamped(p []byte) ([]uint32, error) {
	n := int(binary.LittleEndian.Uint32(p))
	if n > maxEntries {
		return nil, errTooBig
	}
	return make([]uint32, n), nil
}

// decodeSaturated clamps by reassignment instead of rejection: clean.
func decodeSaturated(p []byte) []uint32 {
	n := int(binary.LittleEndian.Uint32(p))
	if n > maxEntries {
		n = maxEntries
	}
	return make([]uint32, n)
}

// decodeEqualityOnly checks that the buffer length is exactly consistent with
// the count — which proves consistency, not a bound: every length the frame
// cap admits still reaches the make, so the finding stands.
func decodeEqualityOnly(p []byte) []uint32 {
	n := int(binary.LittleEndian.Uint16(p[4:]))
	if len(p) != 6+4*n {
		return nil
	}
	out := make([]uint32, 0, n) // want "make sized by a wire-decoded integer"
	return out
}

// decodeBoundedBuffer bounds the count against the remaining buffer with a
// magnitude comparison (the decodeLists idiom): clean.
func decodeBoundedBuffer(p []byte) []uint32 {
	n := int(binary.LittleEndian.Uint32(p))
	if 4+4*n > len(p) {
		return nil
	}
	return make([]uint32, n)
}

// sumUnbounded loops to a wire count: the trip count is attacker-controlled.
func sumUnbounded(p []byte) uint32 {
	n := int(binary.LittleEndian.Uint32(p))
	var total uint32
	for i := 0; i < n; i++ { // want "loop bounded by a wire-decoded integer"
		total += binary.LittleEndian.Uint32(p[4+4*i:])
	}
	return total
}

// freshPayload mirrors the frame pool helper. Its size comes in as a
// parameter, which is out of scope: the decoding caller is charged instead.
func freshPayload(n int) []byte {
	return make([]byte, n)
}

// readBody hands a raw wire length to the alloc-named helper.
func readBody(p []byte) []byte {
	n := int(binary.LittleEndian.Uint32(p))
	return freshPayload(n) // want "freshPayload called with a wire-decoded integer"
}

// readU32 is a decode helper matched by name: its result taints call sites.
func readU32(p []byte) uint32 {
	return binary.LittleEndian.Uint32(p)
}

// decodeViaHelper taints through the named helper.
func decodeViaHelper(p []byte) []byte {
	n := int(readU32(p))
	return make([]byte, n) // want "make sized by a wire-decoded integer"
}

// decodeBranchy taints n on one arm only; the constant on the other arm does
// not clean the path that decoded.
func decodeBranchy(p []byte, wire bool) []uint32 {
	var n int
	if wire {
		n = int(binary.LittleEndian.Uint32(p))
	} else {
		n = 4
	}
	return make([]uint32, n) // want "make sized by a wire-decoded integer"
}

// decodeHalfClamped clamps on the strict path only; the lax path reaches the
// make unclamped.
func decodeHalfClamped(p []byte, strict bool) []uint32 {
	n := int(binary.LittleEndian.Uint32(p))
	if strict {
		if n > maxEntries {
			return nil
		}
	}
	return make([]uint32, n) // want "make sized by a wire-decoded integer"
}

// decodeConstSize allocates a fixed-size buffer after decoding: the size is
// untainted, so no finding.
func decodeConstSize(p []byte) []byte {
	v := binary.LittleEndian.Uint32(p)
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out, v)
	return out
}
