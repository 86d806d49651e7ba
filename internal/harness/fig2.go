package harness

import (
	"fmt"
	"strings"

	"holistic/internal/cracker"
)

// Fig2 reproduces the paper's Figure 2: the physical evolution of a cracked
// column across a sequence of range queries. It runs the queries against a
// cracker index and renders the column state after each — values grouped
// into pieces with their value bounds — so the "with every query the
// underlying storage changes, adapting to the queries" behaviour is visible.
func Fig2(vals []int64, queries [][2]int64) string {
	ix := cracker.New(append([]int64{}, vals...), nil)

	var b strings.Builder
	b.WriteString("Figure 2: adaptive indexing (database cracking) step by step\n\n")
	fmt.Fprintf(&b, "initial column (1 piece): %v\n", vals)
	for qi, q := range queries {
		from, to := ix.CrackRange(q[0], q[1])
		fmt.Fprintf(&b, "\nQ%d: select where %d <= A < %d  -> rows [%d,%d)\n", qi+1, q[0], q[1], from, to)
		b.WriteString(renderPieces(ix))
	}
	return b.String()
}

// renderPieces draws each piece with its known value bounds.
func renderPieces(ix *cracker.Index) string {
	var b strings.Builder
	vals := ix.AppendValues(nil)
	ix.ForEachPiece(func(p cracker.Piece) bool {
		lo, hi := "-inf", "+inf"
		if p.HasLo {
			lo = fmt.Sprint(p.Lo)
		}
		if p.HasHi {
			hi = fmt.Sprint(p.Hi)
		}
		fmt.Fprintf(&b, "  piece [%s, %s): %v\n", lo, hi, vals[p.Start:p.End])
		return true
	})
	return b.String()
}
