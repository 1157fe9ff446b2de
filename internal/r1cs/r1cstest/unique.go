package r1cstest

import "math/big"

// Undetermined is a static uniqueness check over rows, after the
// propagation pass of Pailoor et al. (PLDI 2023). It returns, ascending,
// every wire that the constant wire, the instance wires
// (1..NbPublic-1) and the declared inputs do not determine. A wire is
// determined when
//
//   - a row is linear in it and every other wire of the row is
//     determined: it is the row's one undetermined wire, and it appears
//     in C alone, or in one of A and B while the other is a nonzero
//     constant, with a nonzero net coefficient; or
//   - it belongs to a block of booleanity-checked wires (a row
//     w·(w − 1) = 0 each) that are the only undetermined wires of a
//     linear row, with coefficients c·2^e for one nonzero c and distinct
//     e, all e below 253: two such bit strings recompose to integers that
//     differ by less than r, so the row's value fixes every bit.
//
// Propagation runs to a fixed point. A wire it reports is one these
// rules cannot pin: a missing or mis-shaped constraint, or a pin they do
// not read. An empty result is necessary, not sufficient, for a sound
// circuit: it says the rows fix one witness per input, not that the
// witness computes the intended function. Like oracle.go, this file
// imports the standard library only.
func Undetermined(rows *Rows, inputs []int) []int {
	type merged struct{ a, b, c map[int]*big.Int }
	ms := make([]merged, len(rows.Rows))
	rowsOf := make([][]int, rows.NbWires)
	for i, row := range rows.Rows {
		m := merged{a: mergeTerms(row.A), b: mergeTerms(row.B), c: mergeTerms(row.C)}
		ms[i] = m
		seen := map[int]bool{}
		for _, side := range []map[int]*big.Int{m.a, m.b, m.c} {
			for w := range side {
				if !seen[w] {
					seen[w] = true
					rowsOf[w] = append(rowsOf[w], i)
				}
			}
		}
	}
	boolean := make([]bool, rows.NbWires)
	for _, m := range ms {
		if w, ok := booleanity(m.a, m.b, m.c); ok {
			boolean[w] = true
		}
	}

	det := make([]bool, rows.NbWires)
	var queue []int
	mark := func(w int) {
		if !det[w] {
			det[w] = true
			queue = append(queue, rowsOf[w]...)
		}
	}
	for w := 0; w < rows.NbPublic && w < rows.NbWires; w++ {
		det[w] = true
	}
	for _, w := range inputs {
		det[w] = true
	}
	for i := range ms {
		queue = append(queue, i)
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		m := ms[i]
		var und []int
		for _, side := range []map[int]*big.Int{m.a, m.b, m.c} {
			for w := range side {
				if !det[w] && !contains(und, w) {
					und = append(und, w)
				}
			}
		}
		if len(und) == 0 {
			continue
		}
		coeffs, ok := netCoeffs(m.a, m.b, m.c, und)
		if !ok {
			continue
		}
		if len(und) == 1 || isBitBlock(und, coeffs, boolean) {
			for _, w := range und {
				mark(w)
			}
		}
	}

	var out []int
	for w, d := range det {
		if !d {
			out = append(out, w)
		}
	}
	return out
}

// mergeTerms sums a row side's coefficients per wire mod r, dropping
// wires whose coefficients cancel.
func mergeTerms(terms []Term) map[int]*big.Int {
	m := map[int]*big.Int{}
	for _, t := range terms {
		c := new(big.Int).Mod(t.Coeff, r)
		if prev, ok := m[t.Wire]; ok {
			c = frAdd(prev, c)
		}
		m[t.Wire] = c
	}
	for w, c := range m {
		if c.Sign() == 0 {
			delete(m, w)
		}
	}
	return m
}

// constant returns the value of a side that reads the constant wire
// only.
func constant(side map[int]*big.Int) (*big.Int, bool) {
	for w := range side {
		if w != 0 {
			return nil, false
		}
	}
	if c, ok := side[0]; ok {
		return c, true
	}
	return new(big.Int), true
}

// netCoeffs writes the row as Σ coeffs[k]·und[k] = (determined terms)
// when it is linear in the undetermined wires und: they sit in C alone,
// or in one of A and B (and perhaps C) while the other is a nonzero
// constant. Every net coefficient must be nonzero.
func netCoeffs(a, b, c map[int]*big.Int, und []int) ([]*big.Int, bool) {
	inA, inB := false, false
	for _, w := range und {
		inA = inA || a[w] != nil
		inB = inB || b[w] != nil
	}
	if inA && inB {
		return nil, false
	}
	var lin map[int]*big.Int // the side holding und, if not C alone
	var k *big.Int           // the other side's constant value
	if inA || inB {
		var other map[int]*big.Int
		lin, other = a, b
		if inB {
			lin, other = b, a
		}
		var ok bool
		if k, ok = constant(other); !ok || k.Sign() == 0 {
			return nil, false
		}
	}
	out := make([]*big.Int, len(und))
	for i, w := range und {
		coef := new(big.Int)
		if lin != nil && lin[w] != nil {
			coef = frMul(lin[w], k)
		}
		if cw := c[w]; cw != nil {
			coef = new(big.Int).Mod(new(big.Int).Sub(coef, cw), r)
		}
		if coef.Sign() == 0 {
			return nil, false
		}
		out[i] = coef
	}
	return out, true
}

// booleanity recognises a row (α·w + α₀)·(β·w + β₀) = 0 whose roots are
// exactly {0, 1}.
func booleanity(a, b, c map[int]*big.Int) (int, bool) {
	if len(c) != 0 {
		return 0, false
	}
	w, ra, ok := root(a)
	if !ok {
		return 0, false
	}
	w2, rb, ok := root(b)
	if !ok || w2 != w {
		return 0, false
	}
	zeroOne := ra.Sign() == 0 && rb.Cmp(big.NewInt(1)) == 0 || rb.Sign() == 0 && ra.Cmp(big.NewInt(1)) == 0
	return w, zeroOne
}

// root returns the one non-constant wire of α·w + α₀ and the value of w
// that zeroes it, −α₀/α.
func root(side map[int]*big.Int) (int, *big.Int, bool) {
	w := -1
	for x := range side {
		if x == 0 {
			continue
		}
		if w >= 0 {
			return 0, nil, false
		}
		w = x
	}
	if w < 0 {
		return 0, nil, false
	}
	v := new(big.Int)
	if c0 := side[0]; c0 != nil {
		v = frMul(new(big.Int).Sub(r, c0), new(big.Int).ModInverse(side[w], r))
	}
	return w, v, true
}

// isBitBlock reports whether the wires are all booleanity-checked and
// their coefficients are c·2^e for one c and distinct e < 253.
func isBitBlock(wires []int, coeffs []*big.Int, boolean []bool) bool {
	for _, w := range wires {
		if !boolean[w] {
			return false
		}
	}
	// The block's lowest bit carries c itself; try each as that bit.
	for base := range coeffs {
		inv := new(big.Int).ModInverse(coeffs[base], r)
		exps := map[int]bool{}
		ok := true
		for _, coef := range coeffs {
			ratio := frMul(coef, inv)
			e := ratio.BitLen() - 1
			if e < 0 || e >= 253 || ratio.TrailingZeroBits() != uint(e) || exps[e] {
				ok = false
				break
			}
			exps[e] = true
		}
		if ok {
			return true
		}
	}
	return false
}

func contains(ws []int, w int) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}
