package analysis

import (
	"go/ast"
)

// WireCodec enforces the canonical-codec invariant: every byte that crosses
// the simulated network is produced and parsed by the codecs in
// internal/comm/frame.go, whose layouts are byte-identical to the accounted
// traffic formulas (comm.RequestBytes / comm.ResponseBytes). Hand-rolled
// binary encoding anywhere else is how a second, slightly different frame
// layout sneaks in — and with it byte accounting that silently stops being
// truthful and corruption that the CRC layer never sees.
//
// The rule: outside internal/comm (the codecs themselves) and internal/graph
// (on-disk graph file formats, which never cross the fabric), any use of
// encoding/binary or hash/crc32 is a finding.
var WireCodec = &Analyzer{
	Name: "wirecodec",
	Doc: "cross-node payloads must go through the canonical codecs in internal/comm; " +
		"manual binary encoding elsewhere breaks byte accounting and CRC coverage",
	Run: runWireCodec,
}

func runWireCodec(pass *Pass) {
	path := pass.Pkg.Path()
	if pathHasSegments(path, "internal", "comm") || pathHasSegments(path, "internal", "graph") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch pkgOfIdent(pass.Info, id) {
			case "encoding/binary":
				pass.Reportf(sel.Pos(),
					"manual binary encoding (%s.%s) outside internal/comm: route payloads through the canonical wire codecs so byte accounting and CRC coverage stay truthful",
					id.Name, sel.Sel.Name)
				return false
			case "hash/crc32":
				pass.Reportf(sel.Pos(),
					"checksum construction (%s.%s) outside internal/comm: frame integrity is owned by the canonical codecs",
					id.Name, sel.Sel.Name)
				return false
			}
			return true
		})
	}
}
