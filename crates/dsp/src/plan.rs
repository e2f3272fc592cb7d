//! Precomputed transform plans for the scoring hot path.
//!
//! The paper's deployed window — 6 s × 50 Hz = 300 samples — is not a power
//! of two, but its prime factors are small: the real transform packs it into
//! a 150-point complex one, and 150 = 2·3·5². This module plans every length
//! in O(n log n) and never falls back to the O(n²) [`dft`](crate::dft):
//!
//! * [`FftPlan`] precomputes everything a forward transform of one fixed
//!   length needs. A length whose prime factors are all 2, 3 or 5 (powers
//!   of two included) runs a mixed-radix Cooley–Tukey kernel: Stockham
//!   passes of radix 5, 4, 3 and 2 over per-pass twiddle tables, which
//!   leave the spectrum in natural order without a bit-reversal pass. Any
//!   other length runs Bluestein's chirp-z algorithm, which writes the DFT
//!   as a cyclic convolution and evaluates it with power-of-two transforms
//!   on that same kernel.
//! * [`RealFftPlan`] exploits real input: an even-length real signal is
//!   packed into a half-length complex buffer, transformed once, and
//!   untangled into the one-sided spectrum — half the complex work.
//! * [`SpectrumPlan`] is the feature-extraction entry point: mean removal +
//!   real FFT + one-sided magnitude scaling, writing into a caller-owned
//!   output buffer. Its results are **bit-identical** to the convenience
//!   function [`magnitude_spectrum`](crate::magnitude_spectrum), which is
//!   itself implemented on top of this plan.
//!
//! Every pass is written once, generic over the number of lanes it
//! transforms side by side: [`FftPlan::process`] is the 1-lane instance and
//! [`SpectrumPlan::magnitude_batch4_into`] the 4-lane one. Each lane runs
//! the scalar arithmetic in the scalar order, so a batched lane is
//! bit-identical to a single-stream transform by construction.
//!
//! Plans are immutable after construction and cheap to clone; per-call
//! workspace lives in [`FftScratch`] / [`SpectrumScratch`] so steady-state
//! transforms allocate nothing once the buffers have grown to size.
//!
//! # Example
//!
//! ```
//! use smarteryou_dsp::{SpectrumPlan, SpectrumScratch};
//!
//! let fs = 50.0;
//! let signal: Vec<f64> = (0..300)
//!     .map(|i| (2.0 * std::f64::consts::PI * 2.0 * i as f64 / fs).sin())
//!     .collect();
//! let plan = SpectrumPlan::new(signal.len());
//! let mut scratch = SpectrumScratch::default();
//! let mut spectrum = Vec::new();
//! plan.magnitude_into(&signal, &mut scratch, &mut spectrum);
//! assert_eq!(spectrum.len(), 151); // DC through Nyquist
//! ```

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

use crate::Complex;

/// Reusable workspace for [`FftPlan::process`]. Grows on first use and is
/// then reused allocation-free; one scratch may serve plans of any length.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    /// Real parts of the buffer being transformed (the 1-lane layout).
    re: Vec<f64>,
    /// Imaginary parts of the buffer being transformed.
    im: Vec<f64>,
    /// The kernel's own buffers.
    work: LaneScratch,
}

/// Workspace of the lane-generic kernel, shared by both layouts.
#[derive(Debug, Clone, Default)]
struct LaneScratch {
    /// Stockham partner buffer: passes alternate between it and the data.
    tmp_re: Vec<f64>,
    /// Imaginary counterpart of `tmp_re`.
    tmp_im: Vec<f64>,
    /// Bluestein convolution buffer (`m` elements per lane).
    aux_re: Vec<f64>,
    /// Imaginary counterpart of `aux_re`.
    aux_im: Vec<f64>,
}

/// A forward DFT of one fixed length with all tables precomputed.
///
/// Lengths whose prime factors are all 2, 3 or 5 run the mixed-radix
/// kernel; every other length ≥ 2 runs Bluestein's chirp-z algorithm over
/// a power-of-two mixed-radix plan. Lengths 0 and 1 are identity
/// transforms.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    strategy: Strategy,
}

/// How an [`FftPlan`] evaluates its length.
#[derive(Debug, Clone)]
enum Strategy {
    /// `n <= 1`: the transform is the identity.
    Trivial,
    /// `n`'s prime factors are all 2, 3 or 5: Cooley–Tukey directly.
    MixedRadix(MixedRadixPlan),
    /// `n` has a prime factor above 5 (7, 151, 299 = 13·23, 302 = 2·151,
    /// …): Bluestein, whose power-of-two convolutions run on the
    /// mixed-radix kernel.
    Bluestein(BluesteinPlan),
}

impl FftPlan {
    /// Plans a forward DFT of length `n`.
    pub fn new(n: usize) -> Self {
        let strategy = if n <= 1 {
            Strategy::Trivial
        } else if let Some(plan) = MixedRadixPlan::new(n) {
            Strategy::MixedRadix(plan)
        } else {
            Strategy::Bluestein(BluesteinPlan::new(n))
        };
        FftPlan { n, strategy }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DFT of `buf` in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned length.
    pub fn process(&self, buf: &mut [Complex], scratch: &mut FftScratch) {
        assert_eq!(buf.len(), self.n, "FftPlan::process: length mismatch");
        if self.n <= 1 {
            return;
        }
        let FftScratch { re, im, work } = scratch;
        re.clear();
        re.extend(buf.iter().map(|z| z.re));
        im.clear();
        im.extend(buf.iter().map(|z| z.im));
        self.process_lanes::<1>(re, im, work);
        for (z, (&r, &i)) in buf.iter_mut().zip(re.iter().zip(im.iter())) {
            *z = Complex::new(r, i);
        }
    }

    /// Forward DFT of `L` interleaved lanes in place: element `k` of lane
    /// `l` at index `L·k + l` of `re`/`im`. [`FftPlan::process`] is the
    /// 1-lane instance and the batched spectrum the 4-lane one.
    fn process_lanes<const L: usize>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        scratch: &mut LaneScratch,
    ) {
        debug_assert_eq!(re.len(), L * self.n);
        debug_assert_eq!(im.len(), L * self.n);
        match &self.strategy {
            Strategy::Trivial => {}
            Strategy::MixedRadix(plan) => {
                plan.process::<L>(re, im, &mut scratch.tmp_re, &mut scratch.tmp_im)
            }
            Strategy::Bluestein(plan) => plan.process::<L>(re, im, scratch),
        }
    }

    /// Inverse DFT of `buf` in place, normalised by `1/n` so that a forward
    /// transform followed by this is the identity.
    ///
    /// Implemented by conjugation: `IDFT(x) = conj(DFT(conj(x))) / n`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned length.
    pub fn process_inverse(&self, buf: &mut [Complex], scratch: &mut FftScratch) {
        assert_eq!(
            buf.len(),
            self.n,
            "FftPlan::process_inverse: length mismatch"
        );
        if self.n <= 1 {
            return;
        }
        for z in buf.iter_mut() {
            *z = z.conj();
        }
        self.process(buf, scratch);
        let scale = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = z.conj().scale(scale);
        }
    }
}

/// One complex element of `L` lanes: the kernel's unit of arithmetic. Each
/// operation applies the scalar [`Complex`] formula lane by lane, so every
/// lane of an `L`-lane transform performs exactly the operations of the
/// 1-lane transform — and the fixed-size lane loops vectorize.
#[derive(Clone, Copy)]
struct Lanes<const L: usize> {
    re: [f64; L],
    im: [f64; L],
}

impl<const L: usize> Lanes<L> {
    #[inline(always)]
    fn load(re: &[[f64; L]], im: &[[f64; L]], i: usize) -> Self {
        Lanes {
            re: re[i],
            im: im[i],
        }
    }

    #[inline(always)]
    fn store(self, re: &mut [[f64; L]], im: &mut [[f64; L]], i: usize) {
        re[i] = self.re;
        im[i] = self.im;
    }

    /// `−i · self`: a swap and a sign flip, exact.
    #[inline(always)]
    fn mul_neg_i(self) -> Self {
        let mut out = self;
        for l in 0..L {
            out.re[l] = self.im[l];
            out.im[l] = -self.re[l];
        }
        out
    }

    #[inline(always)]
    fn conj(mut self) -> Self {
        for v in &mut self.im {
            *v = -*v;
        }
        self
    }
}

impl<const L: usize> Add for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for l in 0..L {
            self.re[l] += o.re[l];
            self.im[l] += o.im[l];
        }
        self
    }
}

impl<const L: usize> Sub for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        for l in 0..L {
            self.re[l] -= o.re[l];
            self.im[l] -= o.im[l];
        }
        self
    }
}

/// Real scaling.
impl<const L: usize> Mul<f64> for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn mul(mut self, k: f64) -> Self {
        for l in 0..L {
            self.re[l] *= k;
            self.im[l] *= k;
        }
        self
    }
}

/// Complex product with one factor shared by every lane, in the operand
/// order of `Complex`'s `Mul`.
impl<const L: usize> Mul<Complex> for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, w: Complex) -> Self {
        let mut out = self;
        for l in 0..L {
            out.re[l] = self.re[l] * w.re - self.im[l] * w.im;
            out.im[l] = self.re[l] * w.im + self.im[l] * w.re;
        }
        out
    }
}

/// Views an interleaved buffer as `L`-lane elements.
#[inline(always)]
fn lanes<const L: usize>(v: &[f64]) -> &[[f64; L]] {
    v.as_chunks::<L>().0
}

/// Mutable counterpart of [`lanes`].
#[inline(always)]
fn lanes_mut<const L: usize>(v: &mut [f64]) -> &mut [[f64; L]] {
    v.as_chunks_mut::<L>().0
}

/// `sin(π/3)`, the radix-3 rotation.
const SIN_PI_3: f64 = 0.8660254037844386;
/// `cos(2π/5)`, `cos(4π/5)`, `sin(2π/5)` and `sin(4π/5)`, the radix-5
/// rotations (each the nearest `f64`).
const COS_2PI_5: f64 = 0.30901699437494745;
const COS_4PI_5: f64 = -0.8090169943749475;
const SIN_2PI_5: f64 = 0.9510565162951535;
const SIN_4PI_5: f64 = 0.5877852522924731;

/// The `P`-point DFT of `a` in place, `a_t ← Σ_r a_r·e^{−2πi·rt/P}`, for
/// the planned radices 2, 3, 4 and 5 (`P` is a constant, so the `match`
/// folds away).
#[inline(always)]
fn butterfly<const L: usize, const P: usize>(a: &mut [Lanes<L>; P]) {
    match P {
        2 => {
            let (x0, x1) = (a[0], a[1]);
            a[0] = x0 + x1;
            a[1] = x0 - x1;
        }
        3 => {
            let sum = a[1] + a[2];
            let rot = (a[1] - a[2]).mul_neg_i() * SIN_PI_3;
            let mid = a[0] - sum * 0.5;
            a[0] = a[0] + sum;
            a[1] = mid + rot;
            a[2] = mid - rot;
        }
        4 => {
            let (s02, d02) = (a[0] + a[2], a[0] - a[2]);
            let (s13, d13) = (a[1] + a[3], (a[1] - a[3]).mul_neg_i());
            a[0] = s02 + s13;
            a[1] = d02 + d13;
            a[2] = s02 - s13;
            a[3] = d02 - d13;
        }
        5 => {
            let (s14, d14) = (a[1] + a[4], a[1] - a[4]);
            let (s23, d23) = (a[2] + a[3], a[2] - a[3]);
            let x0 = a[0];
            let mid1 = x0 + s14 * COS_2PI_5 + s23 * COS_4PI_5;
            let mid2 = x0 + s14 * COS_4PI_5 + s23 * COS_2PI_5;
            let rot1 = (d14 * SIN_2PI_5 + d23 * SIN_4PI_5).mul_neg_i();
            let rot2 = (d14 * SIN_4PI_5 - d23 * SIN_2PI_5).mul_neg_i();
            a[0] = x0 + s14 + s23;
            a[1] = mid1 + rot1;
            a[4] = mid1 - rot1;
            a[2] = mid2 + rot2;
            a[3] = mid2 - rot2;
        }
        _ => unreachable!("planned radices are 2, 3, 4 and 5"),
    }
}

/// One radix-`P` Stockham decimation-in-frequency pass.
///
/// The input holds `s` interleaved sub-transforms of length `P·m`, element
/// `j` of sub-transform `q` at `q + s·j`. With `w = e^{−2πi/(P·m)}`, output
/// `t` of the butterfly over `x[q + s·(j + r·m)]`, `r < P`, times `w^{jt}`
/// is element `j` of the `t`-th length-`m` sub-transform that `q` splits
/// into, written to `q + s·(P·j + t)`: the next pass reads `s·P`
/// sub-transforms of length `m`, and after the last (`m = 1`) the spectrum
/// is in natural order.
fn stockham_pass<const L: usize, const P: usize>(
    pass: &Pass,
    src: (&[[f64; L]], &[[f64; L]]),
    dst: (&mut [[f64; L]], &mut [[f64; L]]),
) {
    let (src_re, src_im) = src;
    let (dst_re, dst_im) = dst;
    let (m, s) = (pass.m, pass.s);
    for j in 0..m {
        let twiddles = &pass.twiddles[j * (P - 1)..(j + 1) * (P - 1)];
        for q in 0..s {
            let mut a: [Lanes<L>; P] =
                std::array::from_fn(|r| Lanes::load(src_re, src_im, q + s * (j + r * m)));
            butterfly(&mut a);
            let out = q + s * P * j;
            a[0].store(dst_re, dst_im, out);
            for t in 1..P {
                // w^0 = 1: the first row needs no rotation.
                let v = if j == 0 { a[t] } else { a[t] * twiddles[t - 1] };
                v.store(dst_re, dst_im, out + s * t);
            }
        }
    }
}

/// Mixed-radix Cooley–Tukey (Stockham autosort) plan for a length ≥ 2
/// whose prime factors are all 2, 3 or 5.
#[derive(Debug, Clone)]
struct MixedRadixPlan {
    n: usize,
    passes: Vec<Pass>,
}

/// One pass of a [`MixedRadixPlan`] (see [`stockham_pass`]).
#[derive(Debug, Clone)]
struct Pass {
    /// Butterfly size: 2, 3, 4 or 5.
    radix: usize,
    /// Length of each sub-transform the pass splits off.
    m: usize,
    /// Number of sub-transforms the pass reads (product of earlier radices).
    s: usize,
    /// `w^{jt}` for `j < m` and `1 ≤ t < radix`, row `j` after row `j − 1`,
    /// with `w = e^{−2πi/(radix·m)}`.
    twiddles: Vec<Complex>,
}

impl MixedRadixPlan {
    /// Plans length `n ≥ 2`, or `None` if `n` has a prime factor above 5.
    ///
    /// Radices are taken largest first — fives, fours, threes, then at
    /// most one two — so 150 runs 5·5·3·2 and 512 runs 4·4·4·4·2.
    fn new(n: usize) -> Option<Self> {
        debug_assert!(n >= 2);
        let mut radices = Vec::new();
        let mut rest = n;
        for p in [5, 4, 3, 2] {
            while rest.is_multiple_of(p) {
                radices.push(p);
                rest /= p;
            }
        }
        if rest != 1 {
            return None;
        }
        let (mut len, mut s) = (n, 1);
        let passes = radices
            .into_iter()
            .map(|radix| {
                let m = len / radix;
                let step = -2.0 * PI / len as f64;
                let twiddles = (0..m)
                    .flat_map(|j| (1..radix).map(move |t| Complex::cis(step * (j * t) as f64)))
                    .collect();
                let pass = Pass {
                    radix,
                    m,
                    s,
                    twiddles,
                };
                len = m;
                s *= radix;
                pass
            })
            .collect();
        Some(MixedRadixPlan { n, passes })
    }

    /// Forward DFT of `L` interleaved lanes of `re`/`im` in place; the
    /// passes alternate between the data and `tmp_re`/`tmp_im`, which grow
    /// to `L·n` on first use.
    fn process<const L: usize>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        tmp_re: &mut Vec<f64>,
        tmp_im: &mut Vec<f64>,
    ) {
        let len = L * self.n;
        if tmp_re.len() < len {
            tmp_re.resize(len, 0.0);
            tmp_im.resize(len, 0.0);
        }
        let (tmp_re, tmp_im) = (&mut tmp_re[..len], &mut tmp_im[..len]);
        let mut in_tmp = false;
        for pass in &self.passes {
            let (src, dst) = if in_tmp {
                (
                    (lanes::<L>(tmp_re), lanes::<L>(tmp_im)),
                    (lanes_mut::<L>(re), lanes_mut::<L>(im)),
                )
            } else {
                (
                    (lanes::<L>(re), lanes::<L>(im)),
                    (lanes_mut::<L>(tmp_re), lanes_mut::<L>(tmp_im)),
                )
            };
            match pass.radix {
                2 => stockham_pass::<L, 2>(pass, src, dst),
                3 => stockham_pass::<L, 3>(pass, src, dst),
                4 => stockham_pass::<L, 4>(pass, src, dst),
                5 => stockham_pass::<L, 5>(pass, src, dst),
                _ => unreachable!("planned radices are 2, 3, 4 and 5"),
            }
            in_tmp = !in_tmp;
        }
        if in_tmp {
            re.copy_from_slice(tmp_re);
            im.copy_from_slice(tmp_im);
        }
    }
}

/// Bluestein chirp-z decomposition of a DFT whose length has a prime factor
/// above 5.
///
/// With `w_k = e^{-iπ k²/n}`, the DFT becomes
/// `X_k = w_k · Σ_t (x_t w_t) · w⁻_{(k−t)}` — a cyclic convolution of the
/// chirp-premultiplied signal with the conjugate chirp, evaluated by
/// mixed-radix transforms of the power-of-two length `m ≥ 2n − 1`.
#[derive(Debug, Clone)]
struct BluesteinPlan {
    /// Padded convolution length (`≥ 2n − 1`, power of two).
    m: usize,
    /// `w_k = e^{-iπ k²/n}` for `k < n`.
    chirp: Vec<Complex>,
    /// Forward length-`m` FFT of the conjugate-chirp kernel, pre-scaled by
    /// `1/m` so the inverse convolution transform needs no extra pass.
    kernel: Vec<Complex>,
    inner: MixedRadixPlan,
}

impl BluesteinPlan {
    fn new(n: usize) -> Self {
        debug_assert!(n >= 2);
        let m = (2 * n - 1).next_power_of_two();
        // k² mod 2n keeps the chirp argument small: e^{-iπ k²/n} is periodic
        // in k² with period 2n, and small arguments keep sin/cos accurate.
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let q = (k * k) % (2 * n);
                Complex::cis(-PI * q as f64 / n as f64)
            })
            .collect();
        let inner = MixedRadixPlan::new(m).expect("powers of two are 2-smooth");
        let mut kernel_re = vec![0.0; m];
        let mut kernel_im = vec![0.0; m];
        for (k, w) in chirp.iter().enumerate() {
            let b = w.conj();
            for i in [k, (m - k) % m] {
                kernel_re[i] = b.re;
                kernel_im[i] = b.im;
            }
        }
        inner.process::<1>(
            &mut kernel_re,
            &mut kernel_im,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        let scale = 1.0 / m as f64;
        let kernel = kernel_re
            .iter()
            .zip(&kernel_im)
            .map(|(&re, &im)| Complex::new(re, im).scale(scale))
            .collect();
        BluesteinPlan {
            m,
            chirp,
            kernel,
            inner,
        }
    }

    /// Forward DFT of `L` interleaved lanes in place (layout as in
    /// [`FftPlan::process_lanes`]).
    fn process<const L: usize>(&self, re: &mut [f64], im: &mut [f64], scratch: &mut LaneScratch) {
        let LaneScratch {
            tmp_re,
            tmp_im,
            aux_re,
            aux_im,
        } = scratch;
        aux_re.clear();
        aux_re.resize(L * self.m, 0.0);
        aux_im.clear();
        aux_im.resize(L * self.m, 0.0);
        let (x_re, x_im) = (lanes_mut::<L>(re), lanes_mut::<L>(im));
        {
            let (a_re, a_im) = (lanes_mut::<L>(aux_re), lanes_mut::<L>(aux_im));
            for (k, &w) in self.chirp.iter().enumerate() {
                (Lanes::load(x_re, x_im, k) * w).store(a_re, a_im, k);
            }
        }
        self.inner.process::<L>(aux_re, aux_im, tmp_re, tmp_im);
        // The inverse convolution transform runs as
        // `conj(forward(conj(·)))` — conjugations are exact sign flips. The
        // first conj is folded into the kernel multiply, the second into
        // the chirp post-multiply; the 1/m normalisation is already folded
        // into the kernel.
        {
            let (a_re, a_im) = (lanes_mut::<L>(aux_re), lanes_mut::<L>(aux_im));
            for (k, &kv) in self.kernel.iter().enumerate() {
                (Lanes::load(a_re, a_im, k) * kv)
                    .conj()
                    .store(a_re, a_im, k);
            }
        }
        self.inner.process::<L>(aux_re, aux_im, tmp_re, tmp_im);
        let (a_re, a_im) = (lanes::<L>(aux_re), lanes::<L>(aux_im));
        for (k, &w) in self.chirp.iter().enumerate() {
            (Lanes::load(a_re, a_im, k).conj() * w).store(x_re, x_im, k);
        }
    }
}

/// A one-sided forward transform of a fixed-length **real** signal.
///
/// Even lengths pack the signal into a half-length complex buffer, run one
/// half-length [`FftPlan`], and untangle the result with precomputed
/// twiddles; odd lengths run the full-length complex plan. Output is bins
/// `0..=n/2` (DC through Nyquist).
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    kind: RealKind,
}

#[derive(Debug, Clone)]
enum RealKind {
    /// Even `n ≥ 2`: half-length complex transform + untangling twiddles
    /// `e^{-2πik/n}` for `k ≤ n/2`.
    Packed {
        inner: FftPlan,
        untangle: Vec<Complex>,
    },
    /// Odd or degenerate `n`: full-length complex transform.
    Direct(FftPlan),
}

impl RealFftPlan {
    /// Plans a one-sided real transform of length `n`.
    pub fn new(n: usize) -> Self {
        let kind = if n >= 2 && n.is_multiple_of(2) {
            let untangle = (0..=n / 2)
                .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64))
                .collect();
            RealKind::Packed {
                inner: FftPlan::new(n / 2),
                untangle,
            }
        } else {
            RealKind::Direct(FftPlan::new(n))
        };
        RealFftPlan { n, kind }
    }

    /// The signal length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of one-sided output bins: `n/2 + 1`, or 0 for empty input.
    pub fn bins(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.n / 2 + 1
        }
    }

    /// Computes bins `0..=n/2` of the DFT of `signal` into `out` (cleared
    /// first): the 1-lane instance of the real transform behind both
    /// spectrum layouts.
    ///
    /// The packed signal is staged in `scratch`; `_packed` is unused and
    /// kept so existing callers compile.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the planned length.
    pub fn process_into(
        &self,
        signal: &[f64],
        _packed: &mut Vec<Complex>,
        scratch: &mut FftScratch,
        out: &mut Vec<Complex>,
    ) {
        assert_eq!(
            signal.len(),
            self.n,
            "RealFftPlan::process_into: length mismatch"
        );
        out.clear();
        out.reserve(self.bins());
        let FftScratch { re, im, work } = scratch;
        self.process_lanes::<1>(signal, re, im, work, |z| {
            out.push(Complex::new(z.re[0], z.im[0]))
        });
    }

    /// The lane-generic real transform: bins `0..=n/2` of `L` interleaved
    /// real signals (sample `t` of lane `l` at `L·t + l` of `signal`),
    /// handed to `emit` in bin order. The interleaved layout makes the
    /// even/odd packing a pair of `L`-lane copies per packed sample and the
    /// untangle `L` independent lanes per bin.
    fn process_lanes<const L: usize>(
        &self,
        signal: &[f64],
        packed_re: &mut Vec<f64>,
        packed_im: &mut Vec<f64>,
        work: &mut LaneScratch,
        mut emit: impl FnMut(Lanes<L>),
    ) {
        let n = self.n;
        debug_assert_eq!(signal.len(), L * n);
        match &self.kind {
            RealKind::Direct(plan) => {
                packed_re.clear();
                packed_re.extend_from_slice(signal);
                packed_im.clear();
                packed_im.resize(L * n, 0.0);
                plan.process_lanes::<L>(packed_re, packed_im, work);
                let (re, im) = (lanes::<L>(packed_re), lanes::<L>(packed_im));
                for k in 0..self.bins() {
                    emit(Lanes::load(re, im, k));
                }
            }
            RealKind::Packed { inner, untangle } => {
                let h = n / 2;
                packed_re.clear();
                packed_im.clear();
                for pair in lanes::<L>(signal).chunks_exact(2) {
                    packed_re.extend_from_slice(&pair[0]);
                    packed_im.extend_from_slice(&pair[1]);
                }
                inner.process_lanes::<L>(packed_re, packed_im, work);
                // Untangle: with Z the half-length transform of
                // z_k = x_{2k} + i·x_{2k+1},
                //   E_k = (Z_k + Z*_{h−k}) / 2   (spectrum of even samples)
                //   O_k = −i (Z_k − Z*_{h−k}) / 2 (spectrum of odd samples)
                //   X_k = E_k + e^{−2πik/n} · O_k  for k = 0..=h,
                // reading Z cyclically (Z_h = Z_0).
                let (re, im) = (lanes::<L>(packed_re), lanes::<L>(packed_im));
                for (k, &w) in untangle.iter().enumerate() {
                    let zk = Lanes::load(re, im, if k == h { 0 } else { k });
                    let zr = Lanes::load(re, im, if k == 0 { 0 } else { h - k }).conj();
                    let even = (zk + zr) * 0.5;
                    let odd = (zk - zr).mul_neg_i() * 0.5;
                    emit(even + odd * w);
                }
            }
        }
    }
}

/// One spectrum bin's amplitude, `sqrt(re² + im²) · scale`. Not `hypot`:
/// its over/underflow guards are unreachable for centred sensor
/// magnitudes, and it costs ~5× as much.
#[inline]
fn bin_amplitude(re: f64, im: f64, scale: f64) -> f64 {
    (re * re + im * im).sqrt() * scale
}

/// Reusable workspace for both spectrum layouts,
/// [`SpectrumPlan::magnitude_into`] and
/// [`SpectrumPlan::magnitude_batch4_into`]. Its buffers hold one or four
/// signals interleaved — element `k` of lane `l` at index `4k + l` in the
/// batched layout — with separate real and imaginary arrays, so every stage
/// of the batched transform runs contiguous 4-wide lane loops. Grows on
/// first use, then serves steady-state signals of either layout
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SpectrumScratch {
    /// Mean-removed input signals (`L·n` values).
    centered: Vec<f64>,
    /// Packed half-length (or direct full-length) transform buffer.
    packed_re: Vec<f64>,
    /// Imaginary counterpart of `packed_re`.
    packed_im: Vec<f64>,
    /// The transform kernel's own buffers.
    work: LaneScratch,
}

/// The batched layout's workspace: one [`SpectrumScratch`] serves both
/// layouts.
pub type BatchSpectrumScratch = SpectrumScratch;

/// Planned equivalent of [`magnitude_spectrum`](crate::magnitude_spectrum):
/// mean removal, one-sided real FFT, and `2/n` amplitude scaling, with all
/// tables precomputed and all workspace caller-owned.
///
/// The convenience function is implemented on top of this type, so planned
/// and unplanned extractions are bit-identical — the property the feature
/// cache in `smarteryou_core` relies on.
#[derive(Debug, Clone)]
pub struct SpectrumPlan {
    real: RealFftPlan,
}

impl SpectrumPlan {
    /// Plans the magnitude spectrum of `n`-sample signals.
    pub fn new(n: usize) -> Self {
        SpectrumPlan {
            real: RealFftPlan::new(n),
        }
    }

    /// The signal length this plan was built for.
    pub fn len(&self) -> usize {
        self.real.len()
    }

    /// True for the degenerate zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.real.is_empty()
    }

    /// Number of output bins (`n/2 + 1`, or 0 for empty input).
    pub fn bins(&self) -> usize {
        self.real.bins()
    }

    /// Computes the one-sided magnitude spectrum of `signal` into `out`
    /// (cleared first). The signal's mean is removed before transforming,
    /// exactly as [`magnitude_spectrum`](crate::magnitude_spectrum) does,
    /// and each bin's magnitude is `sqrt(re² + im²) · (2/n)`.
    ///
    /// This is the 1-lane instance of the code
    /// [`SpectrumPlan::magnitude_batch4_into`] runs on four lanes.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the planned length.
    pub fn magnitude_into(
        &self,
        signal: &[f64],
        scratch: &mut SpectrumScratch,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            signal.len(),
            self.len(),
            "SpectrumPlan::magnitude_into: length mismatch"
        );
        self.magnitude_lanes([signal], scratch, [out]);
    }

    /// Batched layout: the magnitude spectra of **four** same-length
    /// signals in one pass — the shape of the deployed pipeline, which
    /// transforms exactly four magnitude streams per window (phone/watch ×
    /// accelerometer/gyroscope).
    ///
    /// The signals are mean-removed, interleaved into the SoA layout of
    /// [`SpectrumScratch`], and pushed through the 4-lane instance of
    /// the lane-generic real transform, in which every butterfly is four
    /// independent contiguous scalar butterflies — no shuffles, no
    /// cross-lane arithmetic — so the autovectorizer emits 4-wide vector
    /// ops while each lane performs the scalar path's operations in the
    /// scalar path's order.
    ///
    /// **Parity contract:** every lane is bit-identical to
    /// [`SpectrumPlan::magnitude_into`] on the same signal — both are
    /// instances of one lane-generic body, from the mean to the final
    /// `sqrt(re² + im²) · (2/n)`. The batch-parity proptests pin it with
    /// `to_bits` equality.
    ///
    /// # Panics
    ///
    /// Panics if any signal's length differs from the planned length.
    pub fn magnitude_batch4_into(
        &self,
        signals: [&[f64]; 4],
        scratch: &mut SpectrumScratch,
        outs: [&mut Vec<f64>; 4],
    ) {
        for s in signals {
            assert_eq!(
                s.len(),
                self.len(),
                "SpectrumPlan::magnitude_batch4_into: length mismatch"
            );
        }
        self.magnitude_lanes(signals, scratch, outs);
    }

    /// Both layouts' body: the magnitude spectra of `L` same-length
    /// signals, lane `l` of every stage computed from signal `l` alone.
    fn magnitude_lanes<const L: usize>(
        &self,
        signals: [&[f64]; L],
        scratch: &mut SpectrumScratch,
        mut outs: [&mut Vec<f64>; L],
    ) {
        for out in outs.iter_mut() {
            out.clear();
        }
        let n = self.len();
        if n == 0 {
            return;
        }
        // Each lane's mean sums its samples in order; the lanes' sums run
        // side by side. (Re-slicing to `n` lets the loops drop their
        // bounds checks.)
        let signals = signals.map(|s| &s[..n]);
        let mut means = [0.0f64; L];
        for t in 0..n {
            for (m, sig) in means.iter_mut().zip(&signals) {
                *m += sig[t];
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let SpectrumScratch {
            centered,
            packed_re,
            packed_im,
            work,
        } = scratch;
        centered.clear();
        centered.resize(L * n, 0.0);
        let lanes_out = lanes_mut::<L>(centered);
        for (l, (sig, m)) in signals.iter().zip(&means).enumerate() {
            for (c, &v) in lanes_out.iter_mut().zip(sig.iter()) {
                c[l] = v - m;
            }
        }
        let scale = 2.0 / n as f64;
        for out in outs.iter_mut() {
            out.reserve(self.bins());
        }
        self.real
            .process_lanes::<L>(centered, packed_re, packed_im, work, |z| {
                for (l, out) in outs.iter_mut().enumerate() {
                    out.push(bin_amplitude(z.re[l], z.im[l], scale));
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::from_real((i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.9).cos()))
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} != {y:?}"
            );
        }
    }

    #[test]
    fn plan_matches_dft_across_strategies() {
        let mut scratch = FftScratch::default();
        // Trivial lengths; mixed-radix ones, each radix alone and mixed,
        // powers of two included, and the paper's 300 with its packed 150;
        // and Bluestein ones, primes above 5 and composites with one.
        for n in [
            0usize, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 60, 64, 100, 128, 150, 300, 360, 512, 7,
            11, 14, 49, 151, 299, 302,
        ] {
            let x = signal(n);
            let mut buf = x.clone();
            FftPlan::new(n).process(&mut buf, &mut scratch);
            assert_close(&buf, &dft(&x), 1e-8 * (n.max(1) as f64));
        }
    }

    #[test]
    fn strategy_follows_the_prime_factors() {
        let is_mixed_radix = |n| matches!(FftPlan::new(n).strategy, Strategy::MixedRadix(_));
        let is_bluestein = |n| matches!(FftPlan::new(n).strategy, Strategy::Bluestein(_));
        // 2, 3 and 6 s at 50 Hz, and powers of two: only 2, 3 and 5 divide.
        for n in [100, 150, 300, 128, 512] {
            assert!(is_mixed_radix(n), "{n} should run mixed-radix");
        }
        // A prime factor above 5: 7, 151, 299 = 13·23, 302 = 2·151.
        for n in [7, 151, 299, 302] {
            assert!(is_bluestein(n), "{n} should run Bluestein");
        }
        for n in [0, 1] {
            assert!(matches!(FftPlan::new(n).strategy, Strategy::Trivial));
        }
        // 150 = 5·5·3·2, largest radix first; 512 = 4⁴·2.
        let radices = |n| match FftPlan::new(n).strategy {
            Strategy::MixedRadix(plan) => plan.passes.iter().map(|p| p.radix).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        assert_eq!(radices(150), [5, 5, 3, 2]);
        assert_eq!(radices(512), [4, 4, 4, 4, 2]);
    }

    #[test]
    fn plan_inverse_roundtrips() {
        let mut scratch = FftScratch::default();
        for n in [1usize, 8, 33, 300] {
            let x = signal(n);
            let plan = FftPlan::new(n);
            let mut buf = x.clone();
            plan.process(&mut buf, &mut scratch);
            plan.process_inverse(&mut buf, &mut scratch);
            assert_close(&buf, &x, 1e-9 * (n as f64));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn plan_rejects_wrong_length() {
        let mut scratch = FftScratch::default();
        FftPlan::new(8).process(&mut [Complex::ZERO; 4], &mut scratch);
    }

    #[test]
    fn real_plan_matches_complex_dft_bins() {
        let mut packed = Vec::new();
        let mut scratch = FftScratch::default();
        let mut out = Vec::new();
        // Even (packed) and odd (direct) lengths.
        for n in [2usize, 4, 9, 10, 64, 151, 300] {
            let x = signal(n);
            let real: Vec<f64> = x.iter().map(|z| z.re).collect();
            let plan = RealFftPlan::new(n);
            assert_eq!(plan.bins(), n / 2 + 1);
            plan.process_into(&real, &mut packed, &mut scratch, &mut out);
            let reference = dft(&x);
            assert_close(&out, &reference[..=n / 2], 1e-8 * (n as f64));
        }
    }

    #[test]
    fn spectrum_matches_dft_magnitudes() {
        // The lane-generic real path (packed and direct, over mixed-radix
        // and Bluestein transforms) against the mean-removed O(n²) DFT.
        let mut scratch = SpectrumScratch::default();
        let mut out = Vec::new();
        for n in [1usize, 2, 9, 10, 14, 64, 150, 151, 300, 302] {
            let x: Vec<f64> = signal(n).iter().map(|z| z.re + 9.81).collect();
            SpectrumPlan::new(n).magnitude_into(&x, &mut scratch, &mut out);
            let mean = x.iter().sum::<f64>() / n as f64;
            let centered: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v - mean)).collect();
            let reference = dft(&centered);
            assert_eq!(out.len(), n / 2 + 1);
            for (k, (&got, want)) in out.iter().zip(&reference).enumerate() {
                let want = want.abs() * 2.0 / n as f64;
                assert!((got - want).abs() < 1e-12, "n={n} bin {k}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn real_plan_empty_input() {
        let plan = RealFftPlan::new(0);
        assert!(plan.is_empty());
        assert_eq!(plan.bins(), 0);
        let mut out = vec![Complex::ONE];
        plan.process_into(&[], &mut Vec::new(), &mut FftScratch::default(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn batched_spectrum_matches_scalar_path() {
        // Mixed-radix (incl. the paper's 300), Bluestein, odd (direct) and
        // trivial lengths; four distinct lanes each.
        for n in [0usize, 1, 2, 4, 9, 10, 14, 64, 150, 151, 300, 302] {
            let plan = SpectrumPlan::new(n);
            let lanes: Vec<Vec<f64>> = (0..4)
                .map(|l| {
                    (0..n)
                        .map(|i| {
                            9.81 * (l == 0) as u64 as f64
                                + (i as f64 * (0.21 + 0.13 * l as f64)).sin()
                                + 0.4 * (i as f64 * (1.7 + 0.31 * l as f64)).cos()
                        })
                        .collect()
                })
                .collect();
            let mut scalar_scratch = SpectrumScratch::default();
            let mut expect = vec![Vec::new(); 4];
            for (l, sig) in lanes.iter().enumerate() {
                plan.magnitude_into(sig, &mut scalar_scratch, &mut expect[l]);
            }
            let mut batch_scratch = SpectrumScratch::default();
            let mut got = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
            let [g0, g1, g2, g3] = &mut got;
            plan.magnitude_batch4_into(
                [&lanes[0], &lanes[1], &lanes[2], &lanes[3]],
                &mut batch_scratch,
                [g0, g1, g2, g3],
            );
            for l in 0..4 {
                assert_eq!(got[l].len(), expect[l].len(), "n={n} lane {l}");
                for (k, (a, b)) in got[l].iter().zip(&expect[l]).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={n} lane {l} bin {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_spectrum_reuses_buffers_without_reallocating() {
        let plan = SpectrumPlan::new(300);
        let mut scratch = SpectrumScratch::default();
        let sigs: Vec<Vec<f64>> = (0..4)
            .map(|l| {
                (0..300)
                    .map(|i| (i as f64 * (0.2 + l as f64)).sin())
                    .collect()
            })
            .collect();
        let mut outs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        let run = |scratch: &mut SpectrumScratch, outs: &mut [Vec<f64>; 4]| {
            let [o0, o1, o2, o3] = outs;
            plan.magnitude_batch4_into(
                [&sigs[0], &sigs[1], &sigs[2], &sigs[3]],
                scratch,
                [o0, o1, o2, o3],
            );
        };
        run(&mut scratch, &mut outs);
        let caps = (
            scratch.centered.capacity(),
            scratch.packed_re.capacity(),
            scratch.work.tmp_re.capacity(),
            outs[0].capacity(),
        );
        for _ in 0..10 {
            run(&mut scratch, &mut outs);
        }
        assert_eq!(
            caps,
            (
                scratch.centered.capacity(),
                scratch.packed_re.capacity(),
                scratch.work.tmp_re.capacity(),
                outs[0].capacity(),
            ),
            "steady-state batched spectra must not reallocate"
        );
    }

    #[test]
    fn spectrum_plan_reuses_buffers_without_reallocating() {
        let plan = SpectrumPlan::new(300);
        let mut scratch = SpectrumScratch::default();
        let mut out = Vec::new();
        let sig: Vec<f64> = (0..300).map(|i| (i as f64 * 0.21).sin()).collect();
        plan.magnitude_into(&sig, &mut scratch, &mut out);
        let caps = (
            scratch.centered.capacity(),
            scratch.packed_re.capacity(),
            scratch.packed_im.capacity(),
            scratch.work.tmp_re.capacity(),
            out.capacity(),
        );
        for _ in 0..10 {
            plan.magnitude_into(&sig, &mut scratch, &mut out);
        }
        assert_eq!(
            caps,
            (
                scratch.centered.capacity(),
                scratch.packed_re.capacity(),
                scratch.packed_im.capacity(),
                scratch.work.tmp_re.capacity(),
                out.capacity(),
            ),
            "steady-state spectrum computation must not reallocate"
        );
    }
}
