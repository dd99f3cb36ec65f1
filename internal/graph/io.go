package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge-list text stream: one
// "u v" pair per line; lines starting with '#' or '%' are comments. This is
// the SNAP dataset format.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	bld := NewBuilder(0)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineno, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineno, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineno, err)
		}
		bld.AddEdge(VertexID(u), VertexID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return bld.Build(), nil
}

// WriteEdgeList writes each undirected edge once as "u v" lines.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) < v {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

const binaryMagic = 0x4b485a44 // "KHZD"

// WriteBinary serializes the graph in a compact little-endian CSR format:
// magic, version, n, labeled flag, offsets, edges, labels.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binaryMagic, 1, uint64(g.NumVertices())}
	if g.Labeled() {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.edges); err != nil {
		return err
	}
	if g.Labeled() {
		if err := binary.Write(bw, binary.LittleEndian, g.labels); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. The header's counts
// are not trusted: arrays are read in chunks that grow with the bytes the
// stream delivers, so a truncated or lying file costs memory in proportion to
// its length before it is rejected.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	if hdr[1] != 1 {
		return nil, fmt.Errorf("graph: unsupported version %d", hdr[1])
	}
	if hdr[2] > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d vertices do not fit a 32-bit vertex ID", hdr[2])
	}
	n := hdr[2]
	offsets, err := readArray[uint64](br, n+1)
	if err != nil {
		return nil, err
	}
	edges, err := readArray[VertexID](br, offsets[n])
	if err != nil {
		return nil, err
	}
	var labels []Label
	if hdr[3] == 1 {
		if labels, err = readArray[Label](br, n); err != nil {
			return nil, err
		}
	}
	return FromCSR(offsets, edges, labels)
}

// readArray reads n little-endian values, each chunk at most as long as what
// has been read so far (at least minChunk), so the memory it takes stays
// within a small factor of the bytes r actually delivered.
func readArray[T uint64 | VertexID | Label](r io.Reader, n uint64) ([]T, error) {
	const minChunk = 1 << 10
	var out []T
	for have := uint64(0); have < n; have = uint64(len(out)) {
		c := int(min(n-have, max(have, minChunk)))
		out = slices.Grow(out, c)[:int(have)+c]
		if err := binary.Read(r, binary.LittleEndian, out[have:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
