//go:build !amd64 || purego

package ext

// Mul sets z = x·y and returns z.
func (z *E2) Mul(x, y *E2) *E2 {
	mulGeneric(z, x, y)
	return z
}

// Square sets z = x² and returns z.
func (z *E2) Square(x *E2) *E2 {
	squareGeneric(z, x)
	return z
}
