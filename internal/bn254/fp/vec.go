package fp

// Slice-level kernels. On amd64 with ADX these dispatch to a single
// assembly call per vector; elsewhere they loop the generic core.

// MulVecInto sets dst[i] = a[i]·b[i] for every i. All three slices must
// have the same length; dst may alias a and/or b element-wise.
func MulVecInto(dst, a, b []Element) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("fp.MulVecInto: length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	mulVecBackend(dst, a, b)
}
