package gadgets

import (
	"slices"
	"testing"

	"zkrownn/internal/r1cs/r1cstest"
)

// TestRescaleReLUDeterminesItsWitness runs the uniqueness check over a
// RescaleReLU of one declared input. Intact, its inputs determine every
// wire. With one booleanity row dropped, that wire may be any field
// element, so the recomposition no longer pins the block and the bits and
// the output stay undetermined; with the product row dropped, the output
// is in no row at all.
func TestRescaleReLUDeterminesItsWitness(t *testing.T) {
	const bound = 30
	c := NewCtx(testParams)
	c.RescaleReLU(secret(c, -123456), testParams.FracBits, bound)
	res, err := c.B.Compile()
	if err != nil {
		t.Fatal(err)
	}
	inputs := r1cstest.DeclaredInputs(res.System)
	rows := r1cstest.RowsOf(res.System)
	// Layout: bound+1 booleanity rows, the recomposition, the product.
	if len(rows.Rows) != bound+3 {
		t.Fatalf("%d rows, want %d", len(rows.Rows), bound+3)
	}
	product := len(rows.Rows) - 1
	out := rows.Rows[product].C[0].Wire
	if u := r1cstest.Undetermined(rows, inputs); len(u) != 0 {
		t.Fatalf("intact RescaleReLU leaves wires %v undetermined", u)
	}

	without := func(i int) *r1cstest.Rows {
		cut := *rows
		cut.Rows = slices.Delete(slices.Clone(rows.Rows), i, i+1)
		return &cut
	}
	if len(rows.Rows[3].C) != 0 {
		t.Fatal("row 3 is not a booleanity row")
	}
	bit := rows.Rows[3].A[0].Wire
	if u := r1cstest.Undetermined(without(3), inputs); !slices.Contains(u, bit) || !slices.Contains(u, out) {
		t.Errorf("booleanity row of wire %d dropped: undetermined %v, want it and the output %d", bit, u, out)
	}
	if u := r1cstest.Undetermined(without(product), inputs); !slices.Equal(u, []int{out}) {
		t.Errorf("product row dropped: undetermined %v, want the output %d alone", u, out)
	}
}
