//! Precomputed transform plans for the scoring hot path.
//!
//! The paper's deployed window — 6 s × 50 Hz = 300 samples — is not a power
//! of two, so the radix-2 FFT alone cannot serve it, and the O(n²) [`dft`]
//! fallback dominated feature-extraction cost in the fleet benchmarks. This
//! module removes both problems:
//!
//! * [`FftPlan`] precomputes everything a forward transform of one fixed
//!   length needs — bit-reversal-ready twiddle tables for power-of-two
//!   lengths, and a Bluestein (chirp-z) decomposition for every other
//!   length, which evaluates an arbitrary-length DFT as three power-of-two
//!   FFTs in O(n log n).
//! * [`RealFftPlan`] exploits real input: an even-length real signal is
//!   packed into a half-length complex buffer, transformed once, and
//!   untangled into the one-sided spectrum — half the complex work.
//! * [`SpectrumPlan`] is the feature-extraction entry point: mean removal +
//!   real FFT + one-sided magnitude scaling, writing into a caller-owned
//!   output buffer. Its results are **bit-identical** to the convenience
//!   function [`magnitude_spectrum`](crate::magnitude_spectrum), which is
//!   itself implemented on top of this plan.
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

use crate::Complex;

/// Reusable workspace for [`FftPlan::process`]. Grows on first use and is
/// then reused allocation-free; one scratch may serve plans of any length.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    /// Bluestein convolution buffer (length `m` of the inner plan).
    aux: Vec<Complex>,
}

/// A forward DFT of one fixed length with all tables precomputed.
///
/// Power-of-two lengths run the iterative radix-2 Cooley–Tukey kernel over
/// a precomputed twiddle table; every other length ≥ 2 runs Bluestein's
/// chirp-z algorithm (the DFT written as a cyclic convolution, evaluated by
/// power-of-two FFTs). Lengths 0 and 1 are identity transforms.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    strategy: Strategy,
}

#[derive(Debug, Clone)]
enum Strategy {
    /// `n <= 1`: the transform is the identity.
    Trivial,
    /// `n` is a power of two.
    Radix2(Radix2Plan),
    /// Any other length.
    Bluestein(BluesteinPlan),
}

impl FftPlan {
    /// Plans a forward DFT of length `n`.
    pub fn new(n: usize) -> Self {
        let strategy = if n <= 1 {
            Strategy::Trivial
        } else if n.is_power_of_two() {
            Strategy::Radix2(Radix2Plan::new(n))
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
        match &self.strategy {
            Strategy::Trivial => {}
            Strategy::Radix2(plan) => plan.process(buf),
            Strategy::Bluestein(plan) => plan.process(buf, scratch),
        }
    }

    /// Forward DFT of four interleaved lanes at once (see
    /// [`BatchSpectrumScratch`] for the layout). Per-lane arithmetic is the
    /// scalar [`FftPlan::process`] op for op, so each lane's result is
    /// bit-identical to transforming it alone.
    fn process_batch4(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        aux_re: &mut Vec<f64>,
        aux_im: &mut Vec<f64>,
    ) {
        debug_assert_eq!(re.len(), 4 * self.n);
        debug_assert_eq!(im.len(), 4 * self.n);
        match &self.strategy {
            Strategy::Trivial => {}
            Strategy::Radix2(plan) => plan.process_batch4(re, im),
            Strategy::Bluestein(plan) => plan.process_batch4(re, im, aux_re, aux_im),
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

/// Iterative radix-2 Cooley–Tukey with a flat precomputed twiddle table.
#[derive(Debug, Clone)]
struct Radix2Plan {
    n: usize,
    /// Concatenated per-stage twiddles: for each stage length
    /// `len = 2, 4, …, n`, the first `len/2` powers of `e^{-2πi/len}`
    /// (`n - 1` entries total).
    twiddles: Vec<Complex>,
}

impl Radix2Plan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let step = -2.0 * PI / len as f64;
            for k in 0..len / 2 {
                twiddles.push(Complex::cis(step * k as f64));
            }
            len <<= 1;
        }
        Radix2Plan { n, twiddles }
    }

    /// In-place forward transform. Inverse transforms go through the
    /// conjugation identity at the call sites, keeping this innermost
    /// butterfly loop branch-free.
    fn process(&self, buf: &mut [Complex]) {
        let n = self.n;
        debug_assert_eq!(buf.len(), n);
        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if j > i {
                buf.swap(i, j);
            }
        }
        let mut offset = 0usize;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[offset..offset + half];
            for start in (0..n).step_by(len) {
                for (k, &w) in stage.iter().enumerate() {
                    let even = buf[start + k];
                    let odd = buf[start + k + half] * w;
                    buf[start + k] = even + odd;
                    buf[start + k + half] = even - odd;
                }
            }
            offset += half;
            len <<= 1;
        }
    }

    /// Four-lane SoA variant of [`Radix2Plan::process`]: element `k` of
    /// lane `l` lives at index `4k + l` of `re`/`im`, so every butterfly
    /// becomes four independent, contiguous scalar butterflies — exactly
    /// the shape the autovectorizer turns into 4-wide vector ops, with no
    /// shuffles and no cross-lane arithmetic. Per lane this performs the
    /// scalar butterflies in the same order with the same operand order,
    /// so each lane's output is bit-identical to the scalar path.
    fn process_batch4(&self, re: &mut [f64], im: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(re.len(), 4 * n);
        debug_assert_eq!(im.len(), 4 * n);
        // Bit-reversal permutation, swapping whole 4-lane blocks.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if j > i {
                for l in 0..4 {
                    re.swap(4 * i + l, 4 * j + l);
                    im.swap(4 * i + l, 4 * j + l);
                }
            }
        }
        let mut offset = 0usize;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[offset..offset + half];
            for start in (0..n).step_by(len) {
                for (k, &w) in stage.iter().enumerate() {
                    let i = 4 * (start + k);
                    let j = 4 * (start + k + half);
                    let (re_lo, re_hi) = re.split_at_mut(j);
                    let (im_lo, im_hi) = im.split_at_mut(j);
                    let ar: &mut [f64; 4] = (&mut re_lo[i..i + 4]).try_into().expect("4 lanes");
                    let ai: &mut [f64; 4] = (&mut im_lo[i..i + 4]).try_into().expect("4 lanes");
                    let br: &mut [f64; 4] = (&mut re_hi[..4]).try_into().expect("4 lanes");
                    let bi: &mut [f64; 4] = (&mut im_hi[..4]).try_into().expect("4 lanes");
                    for l in 0..4 {
                        let or = br[l] * w.re - bi[l] * w.im;
                        let oi = br[l] * w.im + bi[l] * w.re;
                        br[l] = ar[l] - or;
                        bi[l] = ai[l] - oi;
                        ar[l] += or;
                        ai[l] += oi;
                    }
                }
            }
            offset += half;
            len <<= 1;
        }
    }
}

/// Bluestein chirp-z decomposition of an arbitrary-length DFT.
///
/// With `w_k = e^{-iπ k²/n}`, the DFT becomes
/// `X_k = w_k · Σ_t (x_t w_t) · w⁻_{(k−t)}` — a cyclic convolution of the
/// chirp-premultiplied signal with the conjugate chirp, evaluated via
/// power-of-two FFTs of length `m ≥ 2n − 1`.
#[derive(Debug, Clone)]
struct BluesteinPlan {
    /// Padded convolution length (`≥ 2n − 1`, power of two).
    m: usize,
    /// `w_k = e^{-iπ k²/n}` for `k < n`.
    chirp: Vec<Complex>,
    /// Forward length-`m` FFT of the conjugate-chirp kernel, pre-scaled by
    /// `1/m` so the inverse convolution transform needs no extra pass.
    kernel: Vec<Complex>,
    inner: Radix2Plan,
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
        let inner = Radix2Plan::new(m);
        let mut kernel = vec![Complex::ZERO; m];
        kernel[0] = chirp[0].conj();
        for k in 1..n {
            let b = chirp[k].conj();
            kernel[k] = b;
            kernel[m - k] = b;
        }
        inner.process(&mut kernel);
        let scale = 1.0 / m as f64;
        for z in &mut kernel {
            *z = z.scale(scale);
        }
        BluesteinPlan {
            m,
            chirp,
            kernel,
            inner,
        }
    }

    fn process(&self, buf: &mut [Complex], scratch: &mut FftScratch) {
        let aux = &mut scratch.aux;
        aux.clear();
        aux.resize(self.m, Complex::ZERO);
        for (a, (&x, &w)) in aux.iter_mut().zip(buf.iter().zip(&self.chirp)) {
            *a = x * w;
        }
        self.inner.process(aux);
        // The inverse convolution transform runs as
        // `conj(forward(conj(·)))` — conjugations are exact sign flips, so
        // this is bit-identical to conjugated twiddles while keeping the
        // radix-2 butterfly branch-free. The first conj is folded into the
        // kernel multiply, the second into the chirp post-multiply; the 1/m
        // normalisation is already folded into the kernel.
        for (a, &k) in aux.iter_mut().zip(&self.kernel) {
            *a = (*a * k).conj();
        }
        self.inner.process(aux);
        for (x, (&c, &w)) in buf.iter_mut().zip(aux.iter().zip(&self.chirp)) {
            *x = c.conj() * w;
        }
    }

    /// Four-lane SoA variant of [`BluesteinPlan::process`] (layout as in
    /// [`Radix2Plan::process_batch4`]). The chirp pre/post multiplies and
    /// the kernel pointwise product expand [`Complex`]'s scalar formulas
    /// per lane, so each lane stays bit-identical to the scalar path.
    fn process_batch4(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        aux_re: &mut Vec<f64>,
        aux_im: &mut Vec<f64>,
    ) {
        let n = self.chirp.len();
        debug_assert_eq!(re.len(), 4 * n);
        aux_re.clear();
        aux_re.resize(4 * self.m, 0.0);
        aux_im.clear();
        aux_im.resize(4 * self.m, 0.0);
        for (k, &w) in self.chirp.iter().enumerate() {
            let i = 4 * k;
            for l in 0..4 {
                let xr = re[i + l];
                let xi = im[i + l];
                aux_re[i + l] = xr * w.re - xi * w.im;
                aux_im[i + l] = xr * w.im + xi * w.re;
            }
        }
        self.inner.process_batch4(aux_re, aux_im);
        // `(a * k).conj()` per lane — see the scalar path's comment on the
        // conjugation identity.
        for (k, &kv) in self.kernel.iter().enumerate() {
            let i = 4 * k;
            for l in 0..4 {
                let ar = aux_re[i + l];
                let ai = aux_im[i + l];
                aux_re[i + l] = ar * kv.re - ai * kv.im;
                aux_im[i + l] = -(ar * kv.im + ai * kv.re);
            }
        }
        self.inner.process_batch4(aux_re, aux_im);
        for (k, &w) in self.chirp.iter().enumerate() {
            let i = 4 * k;
            for l in 0..4 {
                let cr = aux_re[i + l];
                let ci = -aux_im[i + l];
                re[i + l] = cr * w.re - ci * w.im;
                im[i + l] = cr * w.im + ci * w.re;
            }
        }
    }
}

/// A one-sided forward transform of a fixed-length **real** signal.
///
/// Even lengths pack the signal into a half-length complex buffer, run one
/// half-length [`FftPlan`], and untangle the result with precomputed
/// twiddles; odd lengths fall back to the full-length complex plan (still
/// O(n log n) via Bluestein). Output is bins `0..=n/2` (DC through Nyquist).
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

    /// Computes bins `0..=n/2` of the DFT of `signal` into `out`.
    ///
    /// `out` is cleared and resized; `packed` is the reusable complex
    /// workspace the packed signal is staged in.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the planned length.
    pub fn process_into(
        &self,
        signal: &[f64],
        packed: &mut Vec<Complex>,
        scratch: &mut FftScratch,
        out: &mut Vec<Complex>,
    ) {
        assert_eq!(
            signal.len(),
            self.n,
            "RealFftPlan::process_into: length mismatch"
        );
        out.clear();
        if self.n == 0 {
            return;
        }
        match &self.kind {
            RealKind::Direct(plan) => {
                packed.clear();
                packed.extend(signal.iter().map(|&s| Complex::from_real(s)));
                plan.process(packed, scratch);
                out.extend_from_slice(&packed[..=self.n / 2]);
            }
            RealKind::Packed { inner, untangle } => {
                let h = self.n / 2;
                packed.clear();
                packed.extend((0..h).map(|k| Complex::new(signal[2 * k], signal[2 * k + 1])));
                inner.process(packed, scratch);
                // Untangle: with Z the half-length transform of
                // z_k = x_{2k} + i·x_{2k+1},
                //   E_k = (Z_k + Z*_{h−k}) / 2   (spectrum of even samples)
                //   O_k = −i (Z_k − Z*_{h−k}) / 2 (spectrum of odd samples)
                //   X_k = E_k + e^{−2πik/n} · O_k  for k = 0..=h,
                // reading Z cyclically (Z_h = Z_0).
                out.reserve(h + 1);
                for (k, &w) in untangle.iter().enumerate() {
                    let zk = packed[k % h];
                    let zr = packed[(h - k) % h].conj();
                    let even = (zk + zr).scale(0.5);
                    let diff = zk - zr;
                    let odd = Complex::new(diff.im, -diff.re).scale(0.5);
                    out.push(even + w * odd);
                }
            }
        }
    }

    /// Four-lane SoA variant of [`RealFftPlan::process_into`], reading the
    /// interleaved centred signals from `scratch.centered` (element `t` of
    /// lane `l` at `4t + l`) and leaving the one-sided bins in
    /// `scratch.bins_re`/`bins_im` (bin `k` of lane `l` at `4k + l`). The
    /// interleaved layout makes the even/odd packing a pair of contiguous
    /// 4-element copies per packed sample and the untangle four independent
    /// contiguous lanes per bin. Per lane, bit-identical to the scalar path.
    fn process_batch4_interleaved(&self, scratch: &mut BatchSpectrumScratch) {
        let n = self.n;
        let BatchSpectrumScratch {
            centered,
            packed_re,
            packed_im,
            aux_re,
            aux_im,
            bins_re,
            bins_im,
        } = scratch;
        debug_assert_eq!(centered.len(), 4 * n);
        let nb = self.bins();
        bins_re.clear();
        bins_re.resize(4 * nb, 0.0);
        bins_im.clear();
        bins_im.resize(4 * nb, 0.0);
        if n == 0 {
            return;
        }
        match &self.kind {
            RealKind::Direct(plan) => {
                packed_re.clear();
                packed_re.extend_from_slice(centered);
                packed_im.clear();
                packed_im.resize(4 * n, 0.0);
                plan.process_batch4(packed_re, packed_im, aux_re, aux_im);
                bins_re.copy_from_slice(&packed_re[..4 * nb]);
                bins_im.copy_from_slice(&packed_im[..4 * nb]);
            }
            RealKind::Packed { inner, untangle } => {
                let h = n / 2;
                packed_re.clear();
                packed_re.resize(4 * h, 0.0);
                packed_im.clear();
                packed_im.resize(4 * h, 0.0);
                for k in 0..h {
                    let src = 8 * k;
                    packed_re[4 * k..4 * k + 4].copy_from_slice(&centered[src..src + 4]);
                    packed_im[4 * k..4 * k + 4].copy_from_slice(&centered[src + 4..src + 8]);
                }
                inner.process_batch4(packed_re, packed_im, aux_re, aux_im);
                for (k, &w) in untangle.iter().enumerate() {
                    let zi = 4 * (k % h);
                    let ri = 4 * ((h - k) % h);
                    for l in 0..4 {
                        let zk_re = packed_re[zi + l];
                        let zk_im = packed_im[zi + l];
                        let zr_re = packed_re[ri + l];
                        let zr_im = -packed_im[ri + l];
                        let even_re = (zk_re + zr_re) * 0.5;
                        let even_im = (zk_im + zr_im) * 0.5;
                        let diff_re = zk_re - zr_re;
                        let diff_im = zk_im - zr_im;
                        let odd_re = diff_im * 0.5;
                        let odd_im = -diff_re * 0.5;
                        bins_re[4 * k + l] = even_re + (w.re * odd_re - w.im * odd_im);
                        bins_im[4 * k + l] = even_im + (w.re * odd_im + w.im * odd_re);
                    }
                }
            }
        }
    }
}

/// One spectrum bin's amplitude, `sqrt(re² + im²) · scale`: the final step
/// of both spectrum layouts, kept in one place so a batched lane stays
/// bit-equal to a single-stream spectrum. Not `hypot`: its over/underflow
/// guards are unreachable for centred sensor magnitudes, and it costs ~5×
/// as much.
#[inline]
fn bin_amplitude(re: f64, im: f64, scale: f64) -> f64 {
    (re * re + im * im).sqrt() * scale
}

/// Reusable workspace for [`SpectrumPlan::magnitude_into`].
#[derive(Debug, Clone, Default)]
pub struct SpectrumScratch {
    fft: FftScratch,
    packed: Vec<Complex>,
    bins: Vec<Complex>,
    centered: Vec<f64>,
}

/// Reusable SoA workspace for [`SpectrumPlan::magnitude_batch4_into`].
///
/// All buffers hold four lanes interleaved — element `k` of lane `l` at
/// index `4k + l` — with separate real/imaginary arrays, so every stage of
/// the batched transform runs contiguous 4-wide lane loops. Grows on first
/// use, then serves steady-state windows allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BatchSpectrumScratch {
    /// Mean-removed input signals, interleaved (`4n` values).
    centered: Vec<f64>,
    /// Packed half-length (or direct full-length) transform buffer.
    packed_re: Vec<f64>,
    /// Imaginary counterpart of `packed_re`.
    packed_im: Vec<f64>,
    /// Bluestein convolution buffer (`4m` values).
    aux_re: Vec<f64>,
    /// Imaginary counterpart of `aux_re`.
    aux_im: Vec<f64>,
    /// One-sided output bins (`4(n/2 + 1)` values).
    bins_re: Vec<f64>,
    /// Imaginary counterpart of `bins_re`.
    bins_im: Vec<f64>,
}

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
    /// exactly as [`magnitude_spectrum`](crate::magnitude_spectrum) does.
    ///
    /// Each bin's magnitude is `sqrt(re² + im²) · (2/n)`, the same final
    /// step as [`SpectrumPlan::magnitude_batch4_into`].
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
        out.clear();
        let n = signal.len();
        if n == 0 {
            return;
        }
        let mean = signal.iter().sum::<f64>() / n as f64;
        scratch.centered.clear();
        scratch.centered.extend(signal.iter().map(|&s| s - mean));
        self.real.process_into(
            &scratch.centered,
            &mut scratch.packed,
            &mut scratch.fft,
            &mut scratch.bins,
        );
        let scale = 2.0 / n as f64;
        out.extend(
            scratch
                .bins
                .iter()
                .map(|z| bin_amplitude(z.re, z.im, scale)),
        );
    }

    /// Batched layout: the magnitude spectra of **four** same-length
    /// signals in one pass — the shape of the deployed pipeline, which
    /// transforms exactly four magnitude streams per window (phone/watch ×
    /// accelerometer/gyroscope).
    ///
    /// The signals are mean-removed, interleaved into the SoA layout of
    /// [`BatchSpectrumScratch`], and pushed through 4-lane variants of the
    /// radix-2 / Bluestein / real-packing kernels in which every butterfly
    /// is four independent contiguous scalar butterflies — no shuffles, no
    /// cross-lane arithmetic — so the autovectorizer emits 4-wide vector
    /// ops while each lane performs the scalar path's operations in the
    /// scalar path's order.
    ///
    /// **Parity contract:** every lane is bit-identical to
    /// [`SpectrumPlan::magnitude_into`] on the same signal — each transform
    /// stage and the final `sqrt(re² + im²) · (2/n)` perform the
    /// single-stream operations in the single-stream order. The
    /// batch-parity proptests pin it with `to_bits` equality.
    ///
    /// # Panics
    ///
    /// Panics if any signal's length differs from the planned length.
    pub fn magnitude_batch4_into(
        &self,
        signals: [&[f64]; 4],
        scratch: &mut BatchSpectrumScratch,
        outs: [&mut Vec<f64>; 4],
    ) {
        let n = self.len();
        for s in signals {
            assert_eq!(
                s.len(),
                n,
                "SpectrumPlan::magnitude_batch4_into: length mismatch"
            );
        }
        let [o0, o1, o2, o3] = outs;
        o0.clear();
        o1.clear();
        o2.clear();
        o3.clear();
        if n == 0 {
            return;
        }
        // Per-lane scalar mean in slice order — bit-identical to the
        // scalar path's mean removal.
        let mut means = [0.0f64; 4];
        for (m, sig) in means.iter_mut().zip(&signals) {
            *m = sig.iter().sum::<f64>() / n as f64;
        }
        scratch.centered.clear();
        scratch.centered.resize(4 * n, 0.0);
        for (l, sig) in signals.iter().enumerate() {
            let m = means[l];
            for (t, &v) in sig.iter().enumerate() {
                scratch.centered[4 * t + l] = v - m;
            }
        }
        self.real.process_batch4_interleaved(scratch);
        let scale = 2.0 / n as f64;
        let nb = self.bins();
        for (l, o) in [o0, o1, o2, o3].into_iter().enumerate() {
            o.reserve(nb);
            for k in 0..nb {
                let re = scratch.bins_re[4 * k + l];
                let im = scratch.bins_im[4 * k + l];
                o.push(bin_amplitude(re, im, scale));
            }
        }
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
        // Trivial, radix-2, and Bluestein lengths, including the paper's 300.
        for n in [0usize, 1, 2, 3, 7, 8, 60, 64, 100, 150, 300] {
            let x = signal(n);
            let mut buf = x.clone();
            FftPlan::new(n).process(&mut buf, &mut scratch);
            assert_close(&buf, &dft(&x), 1e-8 * (n.max(1) as f64));
        }
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
        // Radix-2, Bluestein (incl. the paper's 300), odd (direct) and
        // trivial lengths; four distinct lanes each.
        for n in [0usize, 1, 2, 4, 9, 10, 64, 150, 151, 300] {
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
            let mut batch_scratch = BatchSpectrumScratch::default();
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
        let mut scratch = BatchSpectrumScratch::default();
        let sigs: Vec<Vec<f64>> = (0..4)
            .map(|l| {
                (0..300)
                    .map(|i| (i as f64 * (0.2 + l as f64)).sin())
                    .collect()
            })
            .collect();
        let mut outs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        let run = |scratch: &mut BatchSpectrumScratch, outs: &mut [Vec<f64>; 4]| {
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
            scratch.aux_re.capacity(),
            scratch.bins_re.capacity(),
        );
        for _ in 0..10 {
            run(&mut scratch, &mut outs);
        }
        assert_eq!(
            caps,
            (
                scratch.centered.capacity(),
                scratch.packed_re.capacity(),
                scratch.aux_re.capacity(),
                scratch.bins_re.capacity(),
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
            scratch.packed.capacity(),
            scratch.fft.aux.capacity(),
            scratch.bins.capacity(),
            scratch.centered.capacity(),
            out.capacity(),
        );
        for _ in 0..10 {
            plan.magnitude_into(&sig, &mut scratch, &mut out);
        }
        assert_eq!(
            caps,
            (
                scratch.packed.capacity(),
                scratch.fft.aux.capacity(),
                scratch.bins.capacity(),
                scratch.centered.capacity(),
                out.capacity(),
            ),
            "steady-state spectrum computation must not reallocate"
        );
    }
}
