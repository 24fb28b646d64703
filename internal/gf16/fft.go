package gf16

// Additive FFT after Gao & Mateer ("Additive Fast Fourier Transforms over
// Finite Fields", IEEE Trans. Inf. Theory 2010), over the F₂-subspace
// spanned by 1, 2, 4, …, 2^(m−1). That subspace is exactly the elements
// 0..2^m−1, the subset sum named by the bits of x being x itself, so one
// transform evaluates a polynomial at every x < 2^m: shamir's share
// coordinates 1..n, with m the bit length of n.
//
// One level of the recursion over a basis b_0..b_{d−1} with β = b_{d−1}:
//
//   - twist: g(x) = f(β·x), g_i = f_i·β^i, so the points become the span of
//     γ_j = b_j/β (j < d−1) and 1;
//   - Taylor-expand g at x²+x: g(x) = g0(x²+x) + x·g1(x²+x), where g0 and
//     g1 are the even and odd coefficients of the expansion;
//   - since y ↦ y²+y is F₂-linear and sends 1 to 0, g0 and g1 need only
//     be evaluated over the span of δ_j = γ_j² + γ_j: the next level;
//   - combine: for G_i the subset sum of the γ's named by the bits of i,
//     g(G_i) = u_i + G_i·v_i and g(G_i + 1) = g(G_i) + v_i.
//
// A degree-(k−1) polynomial costs about log₂k · 2^(m−1) multiplies instead
// of Horner's k·2^m: the recursion reaches constants after log₂k levels.

import "math/bits"

// FFT evaluates polynomials at every element below a power of two. It keeps
// the per-level tables of its current m, which depend on m alone and serve
// every node of a level and every polynomial, and its working buffers, so
// repeated Evals at one m do not allocate. The zero value is ready to use;
// an FFT is not safe for concurrent use.
type FFT struct {
	m int
	// logBeta[t] is log β at level t.
	logBeta [16]uint16
	// logG[t][i] is log G_i at level t for i ≥ 1 (G_0 = 0 has no log).
	logG [16][]uint16
	poly []uint16
	odd  []uint16
}

// Eval sets out[x] = Σ_i f[i]·x^i for every x < len(out). len(out) must
// be a power of two no larger than 2^16, and len(f) at most len(out). f is
// read before out is written, so f may be a prefix of out; otherwise it is
// not modified. Field arithmetic is exact, so the values equal Horner's.
func (e *FFT) Eval(out, f []uint16) {
	m := bits.Len(uint(len(out))) - 1
	if m < 0 || m > 16 || len(out) != 1<<m || len(f) > len(out) {
		//lemonvet:allow panic mismatched kernel operand lengths are a caller bug, like out-of-range indexing
		panic("gf16: FFT.Eval needs a power-of-two len(out) ≤ 2^16 and len(f) ≤ len(out)")
	}
	if m != e.m || e.logG[0] == nil {
		e.setup(m)
	}
	n := 1
	for n < len(f) {
		n <<= 1
	}
	e.poly = grow(e.poly, n)
	copy(e.poly, f)
	clear(e.poly[len(f):])
	e.odd = grow(e.odd, n/2)
	e.eval(out, e.poly, 0)
}

// setup builds the level tables for the subspace of dimension m.
func (e *FFT) setup(m int) {
	e.m = m
	var basis [16]uint16
	for j := range m {
		basis[j] = 1 << j
	}
	for t, d := 0, m; d >= 1; t, d = t+1, d-1 {
		beta := basis[d-1]
		e.logBeta[t] = logTable[beta]
		g := grow(e.logG[t], 1<<(d-1))
		g[0] = 0
		for j := 0; j < d-1; j++ {
			gamma := Div(basis[j], beta)
			for i := range 1 << j {
				g[1<<j+i] = g[i] ^ gamma
			}
			basis[j] = Mul(gamma, gamma) ^ gamma
		}
		for i := 1; i < len(g); i++ {
			g[i] = logTable[g[i]]
		}
		e.logG[t] = g
	}
}

// eval writes into out the values of poly, whose length is a power of two
// no larger than len(out), over level t's subspace. It consumes poly.
func (e *FFT) eval(out, poly []uint16, t int) {
	if len(poly) == 1 {
		c := poly[0]
		for i := range out {
			out[i] = c
		}
		return
	}
	lb, le := int(e.logBeta[t]), 0
	for i := 1; i < len(poly); i++ {
		if le += lb; le >= Order {
			le -= Order
		}
		if c := poly[i]; c != 0 {
			poly[i] = expTable[le+int(logTable[c])]
		}
	}
	taylor(poly)
	h := len(poly) / 2
	odd := e.odd[:h]
	for i := range h {
		poly[i], odd[i] = poly[2*i], poly[2*i+1]
	}
	copy(poly[h:], odd)
	half := len(out) / 2
	u, v := out[:half], out[half:]
	e.eval(u, poly[:h], t+1)
	e.eval(v, poly[h:], t+1)
	g := e.logG[t]
	v[0] ^= u[0]
	for i := 1; i < half; i++ {
		w := u[i]
		if c := v[i]; c != 0 {
			w ^= expTable[int(g[i])+int(logTable[c])]
		}
		u[i] = w
		v[i] ^= w
	}
}

// taylor rewrites p, whose length is a power of two, in the (x²+x)-adic
// basis: afterwards the polynomial is Σ_i (p[2i] + p[2i+1]·x)·(x²+x)^i.
// With τ a power of two, (x²+x)^τ = x^2τ + x^τ, so a block [P0|P1|P2|P3] of
// 4τ coefficients is A + (x²+x)^τ·B for A = [P0 | P1+P2+P3] and
// B = [P2+P3 | P3]; each half is then expanded in turn.
func taylor(p []uint16) {
	for n := len(p); n >= 4; n /= 2 {
		q := n / 4
		for b := 0; b < len(p); b += n {
			addSlice(p[b+2*q:b+3*q], p[b+3*q:b+4*q])
			addSlice(p[b+q:b+2*q], p[b+2*q:b+3*q])
		}
	}
}

// grow returns b resized to n elements, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite fully.
func grow(b []uint16, n int) []uint16 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint16, n)
}
