package lanes

// The F_r kernels: fr's slice products and the FFT's twiddle butterfly
// over the scalar field, modulus r, eight contiguous elements a block.
// fr's elements are x = a·R mod r, R = 2²⁵⁶, canonical, 32 bytes each.
// TLOAD4 reads a block as four 64-byte rows and transposes it into
// words, one element per lane; PACK splits the words into limbs; and
// TSTORE4 writes the block back the same way.
//
// A product needs no conversion: x·2⁴ is x in the R' domain (lanes.go),
// so REDC((x·2⁴)·y) = x·y·2⁴/2²⁶⁰ = x·y/R, fr's own Montgomery product,
// in the R domain. One CONDSUB takes it from below 2r to canonical, so
// the lanes return what fr.Mul returns, bit for bit.
//
//	FrMul       dst = (a·2⁴)·b                (R, < 2r → canonical)
//	FrButterfly t   = (b·2⁴)·ω                (R, < 2r → canonical)
//	            a   = a + t                   (< 2r → canonical)
//	            b   = a − t + r               (< 2r → canonical)
//
// The butterfly reads the FFT's flat twiddle table as it is, ω one
// element per b, so it replaces a product pass and an add/sub pass with
// one pass over memory.
//
// Bounds, per lane product: the register operand's bound, the memory
// operand's, and the product's. 16r² < r·2²⁶⁰, so the product is below
// 2r; TestKernelBounds recomputes these rows from fr_amd64.s.
//
//	FrMul
//	  dst = (a·2⁴)·b                       16r · 1r    16r²
//	FrButterfly
//	  t = (b·2⁴)·ω                         16r · 1r    16r²
