//! Exact geometric predicates.
//!
//! Each predicate first evaluates a straightforward floating-point formula
//! together with a forward error bound (Shewchuk's static filter
//! constants). When the magnitude of the approximate result exceeds the
//! bound, its sign is provably correct and is returned directly; otherwise
//! the predicate is re-evaluated exactly with floating-point expansions.
//!
//! The exact fallback is what lets the planarity and empty-circle
//! invariants of the Delaunay structures hold verbatim on `f64` inputs.

use crate::expansion::Expansion;
use crate::Point;

/// Orientation of an ordered point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The triple makes a left turn (counterclockwise).
    CounterClockwise,
    /// The points are collinear.
    Collinear,
    /// The triple makes a right turn (clockwise).
    Clockwise,
}

impl Orientation {
    /// Converts the sign of a determinant into an [`Orientation`].
    #[inline]
    fn from_sign(s: i32) -> Self {
        match s.cmp(&0) {
            std::cmp::Ordering::Greater => Orientation::CounterClockwise,
            std::cmp::Ordering::Equal => Orientation::Collinear,
            std::cmp::Ordering::Less => Orientation::Clockwise,
        }
    }

    /// `1`, `0` or `-1` for CCW, collinear and CW respectively.
    #[inline]
    pub fn sign(self) -> i32 {
        match self {
            Orientation::CounterClockwise => 1,
            Orientation::Collinear => 0,
            Orientation::Clockwise => -1,
        }
    }
}

/// Position of a query point relative to a circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CirclePosition {
    /// Strictly inside the circle.
    Inside,
    /// Exactly on the circle.
    On,
    /// Strictly outside the circle.
    Outside,
}

// Error-bound coefficients from Shewchuk (1997). `EPS` is the machine
// epsilon for rounding (2^-53), i.e. half of `f64::EPSILON`.
const EPS: f64 = f64::EPSILON / 2.0;
const CCW_ERR_BOUND: f64 = (3.0 + 16.0 * EPS) * EPS;
const ICC_ERR_BOUND: f64 = (10.0 + 96.0 * EPS) * EPS;

/// Exact orientation test: does the path `a -> b -> c` turn left, go
/// straight, or turn right?
///
/// Equivalent to the sign of the determinant
/// `| b.x-a.x  b.y-a.y ; c.x-a.x  c.y-a.y |`, evaluated exactly.
///
/// # Example
/// ```
/// use geospan_geometry::{orient2d, Orientation, Point};
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(1.0, 0.0);
/// assert_eq!(orient2d(a, b, Point::new(0.0, 1.0)), Orientation::CounterClockwise);
/// assert_eq!(orient2d(a, b, Point::new(2.0, 0.0)), Orientation::Collinear);
/// assert_eq!(orient2d(a, b, Point::new(0.0, -1.0)), Orientation::Clockwise);
/// ```
#[inline]
pub fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return Orientation::from_sign(sign_of(det));
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return Orientation::from_sign(sign_of(det));
        }
        -(detleft + detright)
    } else {
        return Orientation::from_sign(sign_of(det));
    };

    if det.abs() >= CCW_ERR_BOUND * detsum {
        return Orientation::from_sign(sign_of(det));
    }
    Orientation::from_sign(orient2d_exact(a, b, c))
}

#[inline]
fn sign_of(v: f64) -> i32 {
    if v > 0.0 {
        1
    } else if v < 0.0 {
        -1
    } else {
        0
    }
}

/// Exact evaluation of the orientation determinant via expansions.
///
/// Out-of-line and cold: the static filter above resolves almost every
/// call, so keeping the expansion arithmetic out of the inlined fast
/// path is what makes `orient2d` cheap at its (hot) call sites.
#[cold]
#[inline(never)]
fn orient2d_exact(a: Point, b: Point, c: Point) -> i32 {
    let acx = Expansion::from_diff(a.x, c.x);
    let acy = Expansion::from_diff(a.y, c.y);
    let bcx = Expansion::from_diff(b.x, c.x);
    let bcy = Expansion::from_diff(b.y, c.y);
    let left = acx.mul(&bcy);
    let right = acy.mul(&bcx);
    left.sub(&right).sign()
}

/// Exact in-circle test.
///
/// For a **counterclockwise** triangle `(a, b, c)`, reports whether `d`
/// lies inside, on, or outside the circumcircle of the triangle. For a
/// clockwise triangle the inside/outside answers are swapped (use
/// [`in_circumcircle`] for an orientation-independent test).
///
/// # Example
/// ```
/// use geospan_geometry::{incircle, CirclePosition, Point};
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(2.0, 0.0);
/// let c = Point::new(0.0, 2.0); // CCW triangle, circumcircle centered (1,1), r = √2
/// assert_eq!(incircle(a, b, c, Point::new(1.0, 1.0)), CirclePosition::Inside);
/// assert_eq!(incircle(a, b, c, Point::new(2.0, 2.0)), CirclePosition::On);
/// assert_eq!(incircle(a, b, c, Point::new(3.0, 3.0)), CirclePosition::Outside);
/// ```
#[inline]
pub fn incircle(a: Point, b: Point, c: Point, d: Point) -> CirclePosition {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;

    let sign = if det.abs() > ICC_ERR_BOUND * permanent {
        sign_of(det)
    } else {
        incircle_exact(a, b, c, d)
    };
    match sign.cmp(&0) {
        std::cmp::Ordering::Greater => CirclePosition::Inside,
        std::cmp::Ordering::Equal => CirclePosition::On,
        std::cmp::Ordering::Less => CirclePosition::Outside,
    }
}

/// Exact evaluation of the in-circle determinant via expansions.
///
/// Out-of-line and cold for the same reason as [`orient2d_exact`].
#[cold]
#[inline(never)]
fn incircle_exact(a: Point, b: Point, c: Point, d: Point) -> i32 {
    let adx = Expansion::from_diff(a.x, d.x);
    let ady = Expansion::from_diff(a.y, d.y);
    let bdx = Expansion::from_diff(b.x, d.x);
    let bdy = Expansion::from_diff(b.y, d.y);
    let cdx = Expansion::from_diff(c.x, d.x);
    let cdy = Expansion::from_diff(c.y, d.y);

    let alift = adx.mul(&adx).add(&ady.mul(&ady));
    let blift = bdx.mul(&bdx).add(&bdy.mul(&bdy));
    let clift = cdx.mul(&cdx).add(&cdy.mul(&cdy));

    let bcdet = bdx.mul(&cdy).sub(&cdx.mul(&bdy));
    let cadet = cdx.mul(&ady).sub(&adx.mul(&cdy));
    let abdet = adx.mul(&bdy).sub(&bdx.mul(&ady));

    alift
        .mul(&bcdet)
        .add(&blift.mul(&cadet))
        .add(&clift.mul(&abdet))
        .sign()
}

/// Orientation-independent circumcircle membership test.
///
/// Reports the position of `p` relative to the circumcircle of the
/// (non-degenerate) triangle `{a, b, c}` given in **any** vertex order.
///
/// # Panics
/// Panics if `a`, `b`, `c` are collinear (no circumcircle exists).
///
/// # Example
/// ```
/// use geospan_geometry::{in_circumcircle, CirclePosition, Point};
/// let (a, b, c) = (Point::new(0.0, 0.0), Point::new(0.0, 2.0), Point::new(2.0, 0.0));
/// assert_eq!(in_circumcircle(a, b, c, Point::new(1.0, 1.0)), CirclePosition::Inside);
/// ```
pub fn in_circumcircle(a: Point, b: Point, c: Point, p: Point) -> CirclePosition {
    match orient2d(a, b, c) {
        Orientation::CounterClockwise => incircle(a, b, c, p),
        Orientation::Clockwise => incircle(a, c, b, p),
        #[expect(
            clippy::panic,
            reason = "documented precondition panic: the docs above require a non-degenerate triangle"
        )]
        Orientation::Collinear => {
            panic!("in_circumcircle: degenerate (collinear) triangle {a}, {b}, {c}")
        }
    }
}

/// Exact Gabriel-disk test: does `p` *block* the Gabriel edge `uv`, i.e.
/// does `p` lie in the **closed** disk with diameter segment `uv`
/// (excluding the endpoints themselves)?
///
/// `p` is in that closed disk exactly when the angle `∠ u p v` is at
/// least a right angle, i.e. when `(u - p) · (v - p) <= 0`; the dot
/// product's sign is evaluated exactly.
///
/// The closed disk (rather than the open one) is used so that boundary
/// ties — four cocircular nodes on a perfect grid, say — cannot leave two
/// crossing edges both classified as Gabriel edges: planarity of the
/// Gabriel graph then holds unconditionally, while the minimum spanning
/// tree containment (and hence connectivity) is unaffected.
///
/// # Example
/// ```
/// use geospan_geometry::{gabriel_test, Point};
/// let u = Point::new(0.0, 0.0);
/// let v = Point::new(2.0, 0.0);
/// assert!(gabriel_test(u, v, Point::new(1.0, 0.5)));
/// assert!(gabriel_test(u, v, Point::new(1.0, 1.0))); // boundary blocks
/// assert!(!gabriel_test(u, v, Point::new(1.0, 1.5)));
/// assert!(!gabriel_test(u, v, u)); // endpoints never block
/// ```
#[inline]
pub fn gabriel_test(u: Point, v: Point, p: Point) -> bool {
    if p == u || p == v {
        return false;
    }
    // Filtered evaluation of dot = (u-p)·(v-p).
    let ux = u.x - p.x;
    let uy = u.y - p.y;
    let vx = v.x - p.x;
    let vy = v.y - p.y;
    let t1 = ux * vx;
    let t2 = uy * vy;
    let dot = t1 + t2;
    let permanent = t1.abs() + t2.abs();
    // Same error structure as a 2-term determinant.
    if dot.abs() > CCW_ERR_BOUND * permanent {
        return dot < 0.0;
    }
    gabriel_exact(u, v, p)
}

/// Exact evaluation of the Gabriel dot-product sign via expansions.
///
/// Out-of-line and cold for the same reason as [`orient2d_exact`].
#[cold]
#[inline(never)]
fn gabriel_exact(u: Point, v: Point, p: Point) -> bool {
    let ex = Expansion::from_diff(u.x, p.x);
    let ey = Expansion::from_diff(u.y, p.y);
    let fx = Expansion::from_diff(v.x, p.x);
    let fy = Expansion::from_diff(v.y, p.y);
    ex.mul(&fx).add(&ey.mul(&fy)).sign() <= 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn orient2d_basic() {
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 0.0), p(1.0, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orient2d_is_antisymmetric() {
        let a = p(0.1, 0.2);
        let b = p(0.9, 0.3);
        let c = p(0.4, 0.8);
        assert_eq!(orient2d(a, b, c).sign(), -orient2d(b, a, c).sign());
        assert_eq!(orient2d(a, b, c).sign(), orient2d(b, c, a).sign());
        assert_eq!(orient2d(a, b, c).sign(), orient2d(c, a, b).sign());
    }

    #[test]
    fn orient2d_nearly_collinear_is_exact() {
        // Classic robustness torture: points on a line y = x with tiny
        // perturbations at the limit of double precision.
        let a = p(0.5, 0.5);
        let b = p(12.0, 12.0);
        for i in 0..64 {
            let x = 0.5 + (i as f64) * f64::EPSILON;
            for j in 0..64 {
                let y = 0.5 + (j as f64) * f64::EPSILON;
                let o = orient2d(a, b, p(x, y));
                // Ground truth from exact rational reasoning: sign of
                // (b-a) × (c-a) = 11.5*(y-0.5) - 11.5*(x-0.5), i.e. the
                // sign of j - i (the epsilon steps are exact here).
                let expected = match j.cmp(&i) {
                    std::cmp::Ordering::Greater => Orientation::CounterClockwise,
                    std::cmp::Ordering::Equal => Orientation::Collinear,
                    std::cmp::Ordering::Less => Orientation::Clockwise,
                };
                assert_eq!(o, expected, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn incircle_basic() {
        let a = p(0.0, 0.0);
        let b = p(1.0, 0.0);
        let c = p(0.0, 1.0); // CCW
        assert_eq!(incircle(a, b, c, p(0.5, 0.5)), CirclePosition::Inside);
        assert_eq!(incircle(a, b, c, p(1.0, 1.0)), CirclePosition::On);
        assert_eq!(incircle(a, b, c, p(5.0, 5.0)), CirclePosition::Outside);
    }

    #[test]
    fn incircle_orientation_dependence() {
        let a = p(0.0, 0.0);
        let b = p(1.0, 0.0);
        let c = p(0.0, 1.0);
        let q = p(0.5, 0.5);
        // Swapping two vertices flips the answer.
        assert_eq!(incircle(a, c, b, q), CirclePosition::Outside);
        // in_circumcircle normalizes.
        assert_eq!(in_circumcircle(a, c, b, q), CirclePosition::Inside);
        assert_eq!(in_circumcircle(a, b, c, q), CirclePosition::Inside);
    }

    #[test]
    fn incircle_cocircular_points_are_on() {
        // Four points of a unit circle centered at an exactly
        // representable (dyadic) offset, so the input is exactly
        // cocircular.
        let cx = 0.5;
        let cy = 0.25;
        let a = p(cx + 1.0, cy);
        let b = p(cx, cy + 1.0);
        let c = p(cx - 1.0, cy);
        let d = p(cx, cy - 1.0);
        assert_eq!(in_circumcircle(a, b, c, d), CirclePosition::On);
    }

    #[test]
    fn incircle_tiny_perturbation_is_detected() {
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        let just_in = p(0.0, -1.0 + f64::EPSILON);
        let just_out = p(0.0, -1.0 - 2.0 * f64::EPSILON);
        assert_eq!(in_circumcircle(a, b, c, just_in), CirclePosition::Inside);
        assert_eq!(in_circumcircle(a, b, c, just_out), CirclePosition::Outside);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn in_circumcircle_rejects_collinear() {
        in_circumcircle(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0), p(0.0, 1.0));
    }

    #[test]
    fn gabriel_test_boundary_cases() {
        let u = p(0.0, 0.0);
        let v = p(2.0, 0.0);
        assert!(gabriel_test(u, v, p(1.0, 0.0))); // center of the disk
        assert!(!gabriel_test(u, v, u)); // endpoints never block
        assert!(!gabriel_test(u, v, v));
        assert!(!gabriel_test(u, v, p(0.0, 2.0)));
        // Exactly on the circle of diameter uv: blocks (closed disk).
        assert!(gabriel_test(u, v, p(1.0, 1.0)));
        // Just outside the boundary circle: free.
        assert!(!gabriel_test(u, v, p(1.0, 1.0 + 1e-9)));
    }
}
