//! Powell's direction-set method with golden-section line search.
//!
//! The MI registration literature the paper builds on (Wells/Viola; Maes)
//! optimizes the rigid parameters with Powell's method. The default driver
//! in [`crate::rigid`] uses a simpler adaptive coordinate descent; this
//! module provides the classic algorithm — conjugate direction updates and
//! a derivative-free bracketed line minimization — as a higher-accuracy
//! alternative (`RigidRegConfig` selects it via `optimizer`).

/// A scalar objective over ℝⁿ (maximized by the registration driver after
/// negation — Powell minimizes).
pub trait Objective {
    /// Number of parameters.
    fn dim(&self) -> usize;
    /// Evaluate the objective at `x` (lower is better).
    fn eval(&mut self, x: &[f64]) -> f64;
}

impl<F: FnMut(&[f64]) -> f64> Objective for (usize, F) {
    fn dim(&self) -> usize {
        self.0
    }
    fn eval(&mut self, x: &[f64]) -> f64 {
        (self.1)(x)
    }
}

/// Result of a Powell minimization.
#[derive(Debug, Clone)]
pub struct PowellResult {
    /// The minimizing parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Outer Powell iterations performed.
    pub iterations: usize,
    /// Total objective evaluations.
    pub evaluations: usize,
}

/// Options for [`powell_minimize`].
#[derive(Debug, Clone)]
pub struct PowellOptions {
    /// Initial line-search bracket half-width per coordinate.
    pub initial_step: Vec<f64>,
    /// Stop when one full iteration improves the value by less than this.
    pub tolerance: f64,
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Line-search interval-shrink tolerance (fraction of initial step).
    pub line_tolerance: f64,
}

const GOLD: f64 = 0.618_033_988_749_894_8;

/// Golden-section minimization of `g` on `[a, b]`; returns (t, g(t)).
fn golden_section(
    g: &mut impl FnMut(f64) -> f64,
    mut a: f64,
    mut b: f64,
    tol: f64,
    evals: &mut usize,
) -> (f64, f64) {
    let mut c = b - GOLD * (b - a);
    let mut d = a + GOLD * (b - a);
    let mut fc = g(c);
    let mut fd = g(d);
    *evals += 2;
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - GOLD * (b - a);
            fc = g(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + GOLD * (b - a);
            fd = g(d);
        }
        *evals += 1;
    }
    let t = 0.5 * (a + b);
    let ft = g(t);
    *evals += 1;
    (t, ft)
}

/// Line minimization of `obj` from `x` along `dir`, with an expanding
/// bracket when the minimum lies outside the initial interval.
fn line_minimize(
    obj: &mut dyn Objective,
    x: &mut [f64],
    dir: &[f64],
    step: f64,
    line_tol: f64,
    evals: &mut usize,
) -> f64 {
    let n = x.len();
    let x0 = x.to_vec();
    let mut g = |t: f64| -> f64 {
        let trial: Vec<f64> = (0..n).map(|i| x0[i] + t * dir[i]).collect();
        obj.eval(&trial)
    };
    // Expand the bracket while the edge keeps improving.
    let mut a = -step;
    let mut b = step;
    let f0 = g(0.0);
    *evals += 1;
    for _ in 0..8 {
        let fa = g(a);
        let fb = g(b);
        *evals += 2;
        if fa < f0 && fa <= fb {
            a *= 2.0;
        } else if fb < f0 && fb < fa {
            b *= 2.0;
        } else {
            break;
        }
    }
    let (t, ft) = golden_section(&mut g, a, b, line_tol * step, evals);
    if ft < f0 {
        for i in 0..n {
            x[i] = x0[i] + t * dir[i];
        }
        ft
    } else {
        f0
    }
}

/// Minimize `obj` starting from `x0` with Powell's direction-set method.
pub fn powell_minimize(obj: &mut dyn Objective, x0: &[f64], opts: &PowellOptions) -> PowellResult {
    let n = obj.dim();
    assert_eq!(x0.len(), n);
    assert_eq!(opts.initial_step.len(), n);
    let mut x = x0.to_vec();
    let mut evals = 0usize;
    let mut f = obj.eval(&x);
    evals += 1;
    // Direction set starts as the coordinate axes.
    let mut dirs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut d = vec![0.0; n];
            d[i] = 1.0;
            d
        })
        .collect();

    let mut iterations = 0;
    for _ in 0..opts.max_iterations {
        iterations += 1;
        let f_start = f;
        let x_start = x.clone();
        let mut biggest_drop = 0.0;
        let mut biggest_idx = 0;
        for (i, d) in dirs.iter().enumerate() {
            // Scale the step by the direction's dominant coordinate step.
            let step: f64 = d
                .iter()
                .zip(&opts.initial_step)
                .map(|(di, si)| di.abs() * si)
                .sum::<f64>()
                .max(1e-12);
            let f_new = line_minimize(obj, &mut x, d, step, opts.line_tolerance, &mut evals);
            if f_start.is_finite() && (f - f_new) > biggest_drop {
                biggest_drop = f - f_new;
                biggest_idx = i;
            }
            f = f_new.min(f);
        }
        // Powell update: replace the direction of largest decrease with the
        // net displacement direction.
        let net: Vec<f64> = x.iter().zip(&x_start).map(|(a, b)| a - b).collect();
        let net_norm: f64 = net.iter().map(|v| v * v).sum::<f64>().sqrt();
        if net_norm > 1e-12 {
            dirs.remove(biggest_idx);
            let new_dir: Vec<f64> = net.iter().map(|v| v / net_norm).collect();
            // One extra minimization along the new direction.
            let step: f64 = opts.initial_step.iter().cloned().fold(0.0, f64::max);
            f = line_minimize(obj, &mut x, &new_dir, step, opts.line_tolerance, &mut evals).min(f);
            dirs.push(new_dir);
        }
        if f_start - f < opts.tolerance {
            break;
        }
    }
    PowellResult { x, value: f, iterations, evaluations: evals }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimize(f: impl FnMut(&[f64]) -> f64 + 'static, n: usize, x0: &[f64], step: f64) -> PowellResult {
        let mut obj = (n, f);
        powell_minimize(
            &mut obj,
            x0,
            &PowellOptions {
                initial_step: vec![step; n],
                tolerance: 1e-12,
                max_iterations: 100,
                line_tolerance: 1e-6,
            },
        )
    }

    #[test]
    fn quadratic_bowl() {
        let r = minimize(|x| (x[0] - 2.0).powi(2) + (x[1] + 1.0).powi(2), 2, &[0.0, 0.0], 1.0);
        assert!((r.x[0] - 2.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + 1.0).abs() < 1e-4);
        assert!(r.value < 1e-8);
    }

    #[test]
    fn correlated_quadratic_needs_conjugate_directions() {
        // Strongly coupled quadratic: f = (x+y)² + 0.01 (x−y)².
        let r = minimize(
            |x| (x[0] + x[1] - 3.0).powi(2) + 0.01 * (x[0] - x[1] - 1.0).powi(2),
            2,
            &[5.0, -5.0],
            1.0,
        );
        assert!(r.value < 1e-6, "{:?} value {}", r.x, r.value);
        assert!((r.x[0] + r.x[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn rosenbrock_reaches_valley() {
        let r = minimize(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            2,
            &[-1.2, 1.0],
            0.5,
        );
        // Full convergence on Rosenbrock is slow; reaching the valley
        // floor (f < 1e-2 from f0 ≈ 24) is the expected behavior here.
        assert!(r.value < 1e-2, "value {}", r.value);
    }

    #[test]
    fn already_at_minimum_is_stable() {
        let r = minimize(|x| x[0] * x[0] + x[1] * x[1], 2, &[0.0, 0.0], 1.0);
        assert!(r.value < 1e-10);
        assert!(r.x[0].abs() < 1e-4 && r.x[1].abs() < 1e-4);
    }

    #[test]
    fn six_dimensional_sphere() {
        let r = minimize(
            |x| x.iter().enumerate().map(|(i, v)| (v - i as f64 * 0.1).powi(2)).sum(),
            6,
            &[1.0; 6],
            0.5,
        );
        for (i, v) in r.x.iter().enumerate() {
            assert!((v - i as f64 * 0.1).abs() < 1e-3, "x[{i}] = {v}");
        }
    }
}
