package graph

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// binaryFile lays out a WriteBinary stream by hand: the header with vertex
// count n and labeled flag, then the given offsets, edges and labels. Nothing
// is checked, so it can lie in every way a hostile file can.
func binaryFile(n, labeled uint64, offsets []uint64, edges []VertexID, labels []Label) []byte {
	var buf bytes.Buffer
	for _, x := range []any{[]uint64{binaryMagic, 1, n, labeled}, offsets, edges, labels} {
		binary.Write(&buf, binary.LittleEndian, x)
	}
	return buf.Bytes()
}

// validBinary is a labeled triangle, FuzzReadBinary's valid seed.
func validBinary() []byte {
	return binaryFile(3, 1, []uint64{0, 2, 4, 6}, []VertexID{1, 2, 0, 2, 0, 1}, []Label{0, 1, 0})
}

// hostileBinaries are the rows of TestReadBinaryRejectsHostileFiles and seeds
// of FuzzReadBinary: files that claim more vertices than a vertex ID can name
// or than the file holds, claim more edges than it holds, list a neighbor past
// the last vertex, let an offset run backwards past the edge array's end, or
// leave edges before the first vertex's list.
func hostileBinaries() map[string][]byte {
	return map[string][]byte{
		"n 2^62":                  binaryFile(1<<62, 0, nil, nil, nil),
		"n 2^64-1":                binaryFile(1<<64-1, 0, nil, nil, nil),
		"n 2^33":                  binaryFile(1<<33, 0, []uint64{0, 0, 0}, nil, nil),
		"n 2^32-1, file holds 2":  binaryFile(1<<32-1, 0, []uint64{0, 0, 0}, nil, nil),
		"lying offsets[n]":        binaryFile(1, 0, []uint64{0, 1 << 40}, []VertexID{0}, nil),
		"neighbor out of range":   binaryFile(2, 0, []uint64{0, 1, 2}, []VertexID{7, 0}, nil),
		"non-monotone offsets":    binaryFile(2, 0, []uint64{0, 100, 2}, []VertexID{1, 0}, nil),
		"offsets start past zero": binaryFile(2, 0, []uint64{1, 2, 3}, []VertexID{9, 1, 0}, nil),
	}
}

// readBinaryBounded runs ReadBinary over p and fails t if it allocates more
// than the input's length justifies: a small constant factor of it, plus the
// first chunks and the reader's buffer.
func readBinaryBounded(t *testing.T, p []byte) (*Graph, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ReadBinary(bytes.NewReader(p))
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20+32*uint64(len(p)) {
		t.Fatalf("ReadBinary allocated %d bytes for a %d-byte file", grown, len(p))
	}
	return g, err
}

// FuzzReadBinary holds ReadBinary to its contract on files from outside the
// program: an error, never a panic or an allocation the file's length does
// not justify, and a graph it accepts names only its own vertices.
func FuzzReadBinary(f *testing.F) {
	valid := validBinary()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	for _, p := range hostileBinaries() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		g, err := readBinaryBounded(t, p)
		if err != nil {
			return
		}
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(VertexID(v)) {
				if int(u) >= n {
					t.Fatalf("accepted a graph of %d vertices where %d lists %d", n, v, u)
				}
			}
		}
	})
}
