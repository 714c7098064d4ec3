package linalg

import "math"

// Operator is a symmetric linear operator y = A·x. Implementations include
// the graph Laplacian (internal/laplacian) and its shifted form L − σI used
// by Rayleigh Quotient Iteration.
type Operator interface {
	// Dim returns the dimension n.
	Dim() int
	// Apply computes y = A·x; x and y have length Dim() and do not alias.
	Apply(x, y []float64)
}

// AxpyApplier is an Operator whose matvec can fuse the Lanczos three-term
// recurrence: ApplyAxpy computes y = A·x − beta·z in one streaming pass,
// saving the separate Axpy sweep over y. The Laplacian operators implement
// it; iterative solvers type-assert for it and fall back to Apply+Axpy.
type AxpyApplier interface {
	Operator
	// ApplyAxpy computes y = A·x − beta·z. x, y and z have length Dim();
	// y aliases neither input, while z may alias x (the shifted-operator
	// case y = A·x − σ·x).
	ApplyAxpy(x, y []float64, beta float64, z []float64)
}

// OpFunc adapts a function to the Operator interface.
type OpFunc struct {
	N int
	F func(x, y []float64)
}

func (o OpFunc) Dim() int             { return o.N }
func (o OpFunc) Apply(x, y []float64) { o.F(x, y) }

// ShiftedOp wraps an Operator as A − σI. RQI solves systems with this
// operator, which is symmetric indefinite when σ sits inside the spectrum —
// the reason MINRES rather than CG is used.
type ShiftedOp struct {
	A     Operator
	Sigma float64
}

func (s ShiftedOp) Dim() int { return s.A.Dim() }

func (s ShiftedOp) Apply(x, y []float64) {
	if s.Sigma != 0 {
		// Fuse the shift into the matvec pass when the wrapped operator
		// supports it — every MINRES iteration inside RQI hits this path.
		if ap, ok := s.A.(AxpyApplier); ok {
			ap.ApplyAxpy(x, y, s.Sigma, x)
			return
		}
	}
	s.A.Apply(x, y)
	if s.Sigma != 0 {
		Axpy(-s.Sigma, x, y)
	}
}

// MINRESResult reports the outcome of a MINRES solve.
type MINRESResult struct {
	Iterations int
	// Residual is the final estimated ‖b − A·x‖.
	Residual float64
	// Converged is true when Residual ≤ Tol·‖b‖ was reached within MaxIter.
	Converged bool
}

// MINRESOptions configures MINRES.
type MINRESOptions struct {
	// Tol is the relative residual tolerance (default 1e-10).
	Tol float64
	// MaxIter caps the iterations (default 2n).
	MaxIter int
	// ProjectOnes, when set, keeps iterates orthogonal to the constant
	// vector. RQI on a Laplacian works entirely in 1⊥, where L − σI is
	// nonsingular even though L itself is singular.
	ProjectOnes bool
}

// MINRESWork holds the six length-n work vectors of a MINRES solve so
// repeated solves (the RQI inner loop) reuse one set of buffers instead of
// allocating per call. The zero value is ready; slices grow on demand via
// Grow, so callers that pre-size them from a scratch arena run
// allocation-free.
type MINRESWork struct {
	V, VOld, W     []float64 // Lanczos vectors v_k, v_{k-1} and A·v scratch
	D, DOld, DOld2 []float64 // direction recurrence d_k, d_{k-1}, d_{k-2}
}

func (wk *MINRESWork) grow(n int) {
	wk.V = Grow(wk.V, n)
	wk.VOld = Grow(wk.VOld, n)
	wk.W = Grow(wk.W, n)
	wk.D = Grow(wk.D, n)
	wk.DOld = Grow(wk.DOld, n)
	wk.DOld2 = Grow(wk.DOld2, n)
}

// MINRESWS solves A·x = b for symmetric (possibly indefinite) A using the
// Paige–Saunders minimum-residual method. x is the output vector (its
// initial content is ignored; the zero initial guess is used). The work
// vectors come from work; see MINRESWork.
//
// This is the inner solver of Rayleigh Quotient Iteration in the multilevel
// Fiedler computation (the role SYMMLQ plays in Barnard–Simon's original
// implementation).
func MINRESWS(A Operator, b []float64, x []float64, opt MINRESOptions, work *MINRESWork) MINRESResult {
	n := A.Dim()
	if opt.Tol == 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 2 * n
	}
	for i := range x {
		x[i] = 0
	}
	work.grow(n)
	v, vOld, w := work.V, work.VOld, work.W
	d, dOld, dOld2 := work.D, work.DOld, work.DOld2
	// The direction recurrence multiplies dOld/dOld2 by zero coefficients on
	// the first iterations, which is only safe if recycled buffers hold
	// finite values; clear them.
	Fill(d, 0)
	Fill(dOld, 0)
	Fill(dOld2, 0)

	copy(v, b)
	if opt.ProjectOnes {
		ProjectOutOnes(v)
	}
	beta := Nrm2(v)
	normB := beta
	if normB == 0 {
		return MINRESResult{Converged: true}
	}
	Scal(1/beta, v)

	// QR of the tridiagonal via Givens rotations.
	var cPrev, sPrev, cPrev2, sPrev2 float64 = 1, 0, 1, 0
	eta := beta // residual-driving scalar
	resid := beta
	betaOld := 0.0

	for k := 1; k <= opt.MaxIter; k++ {
		// Lanczos step: w = A v - beta_{k-1} v_{k-1}; alpha = vᵀw. The
		// recurrence subtraction fuses with the alpha reduction (DotAxpy)
		// and the alpha subtraction with the norm (AxpyNrm2) — two memory
		// passes over w instead of four.
		A.Apply(v, w)
		if opt.ProjectOnes {
			ProjectOutOnes(w)
		}
		var alpha float64
		if betaOld != 0 {
			alpha = DotAxpy(-betaOld, vOld, v, w)
		} else {
			alpha = Dot(v, w)
		}
		betaNew := AxpyNrm2(-alpha, v, w)

		// Apply the two previous rotations to the new column (betaOld, alpha, betaNew).
		rho1 := sPrev2 * betaOld            // first super-diagonal effect
		rho2bar := cPrev2 * betaOld         //
		rho2 := cPrev*rho2bar + sPrev*alpha // second entry after prev rotation
		rho3bar := -sPrev*rho2bar + cPrev*alpha
		// New rotation annihilating betaNew.
		rho3 := math.Hypot(rho3bar, betaNew)
		var c, s float64
		if rho3 == 0 {
			c, s = 1, 0
			rho3 = 1e-300 // avoid division by zero; breakdown ⇒ converged
		} else {
			c, s = rho3bar/rho3, betaNew/rho3
		}

		// Update direction: d_k = (v - rho2 d_{k-1} - rho1 d_{k-2}) / rho3.
		for i := 0; i < n; i++ {
			d[i] = (v[i] - rho2*dOld[i] - rho1*dOld2[i]) / rho3
		}
		// Update solution: x += c*eta * d.
		Axpy(c*eta, d, x)
		resid = math.Abs(s * eta)
		eta = -s * eta

		if resid <= opt.Tol*normB {
			return MINRESResult{Iterations: k, Residual: resid, Converged: true}
		}
		if betaNew == 0 {
			// Invariant subspace found; the solve is exact.
			return MINRESResult{Iterations: k, Residual: resid, Converged: resid <= opt.Tol*normB}
		}

		// Shift Lanczos vectors.
		Scal(1/betaNew, w)
		vOld, v, w = v, w, vOld
		betaOld = betaNew
		dOld2, dOld, d = dOld, d, dOld2
		cPrev2, sPrev2 = cPrev, sPrev
		cPrev, sPrev = c, s
	}
	return MINRESResult{Iterations: opt.MaxIter, Residual: resid, Converged: false}
}
