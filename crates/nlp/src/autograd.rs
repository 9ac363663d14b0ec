//! Tape-based reverse-mode automatic differentiation over [`Matrix`].
//!
//! The engine is deliberately minimal: a [`Tape`] records each operation
//! as a node holding its forward value and an opcode; [`Tape::backward`]
//! walks the tape in reverse accumulating gradients. Ops are a closed
//! enum rather than closures, which keeps the whole engine inspectable
//! and each backward rule testable against numeric differentiation (see
//! this module's tests — every op is gradient-checked).
//!
//! This is the "tiny candle" that makes the NetBERT substitute trainable
//! without external ML dependencies.

use crate::tensor::Matrix;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Operation record for backward.
enum Op {
    Leaf,
    MatMul(Var, Var),
    MatMulTransposeB(Var, Var),
    Add(Var, Var),
    AddRow { a: Var, bias: Var },
    Scale { a: Var, s: f32 },
    Relu(Var),
    Tanh(Var),
    SoftmaxRows(Var),
    LayerNormRows { a: Var, gain: Var, bias: Var },
    Gather { table: Var, indices: Vec<usize> },
    MeanRows(Var),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    NormalizeRows(Var),
    Cosine(Var, Var),
    MseScalar { a: Var, target: f32 },
    CrossEntropyRows { logits: Var, targets: Vec<usize> },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Numerical-stability epsilon of layer norm.
pub(crate) const LN_EPS: f32 = 1e-5;

/// A forward tape. Build a computation with the op methods, then call
/// [`Tape::backward`] on a scalar (1×1) loss node.
pub struct Tape {
    nodes: Vec<Node>,
}

impl Default for Tape {
    fn default() -> Self {
        Tape::new()
    }
}

impl Tape {
    pub fn new() -> Tape {
        Tape { nodes: Vec::new() }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Insert an input or parameter value.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// `a × bᵀ` (attention scores: q·kᵀ).
    pub fn matmul_transpose_b(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(&self.value(b).transpose());
        self.push(value, Op::MatMulTransposeB(a, b))
    }

    /// Element-wise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Broadcast-add a 1×cols bias row to every row of `a`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let value = self.value(a).add_row(self.value(bias));
        self.push(value, Op::AddRow { a, bias })
    }

    /// `a * s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.push(value, Op::Scale { a, s })
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Element-wise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        self.push(value, Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalisation with learned gain/bias (1×cols each).
    pub fn layer_norm_rows(&mut self, a: Var, gain: Var, bias: Var) -> Var {
        let x = self.value(a);
        let g = self.value(gain);
        let b = self.value(bias);
        assert_eq!(g.rows, 1);
        assert_eq!(b.rows, 1);
        let mut out = Matrix::zeros(x.rows, x.cols);
        for r in 0..x.rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / x.cols as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / x.cols as f32;
            let inv = 1.0 / (var + LN_EPS).sqrt();
            for (c, &xv) in row.iter().enumerate() {
                let xhat = (xv - mean) * inv;
                out.set(r, c, xhat * g.data[c] + b.data[c]);
            }
        }
        self.push(out, Op::LayerNormRows { a, gain, bias })
    }

    /// Gather rows of `table` by index (embedding lookup).
    pub fn gather(&mut self, table: Var, indices: &[usize]) -> Var {
        let t = self.value(table);
        let mut out = Matrix::zeros(indices.len(), t.cols);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(t.row(i));
        }
        self.push(
            out,
            Op::Gather {
                table,
                indices: indices.to_vec(),
            },
        )
    }

    /// Mean over rows → 1×cols (sentence pooling).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).mean_rows();
        self.push(value, Op::MeanRows(a))
    }

    /// Concatenate column-wise (multi-head reassembly).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let rows = self.value(parts[0]).rows;
        let total: usize = parts.iter().map(|&p| self.value(p).cols).sum();
        let mut out = Matrix::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let m = self.value(p);
            assert_eq!(m.rows, rows, "concat_cols ragged rows");
            for r in 0..rows {
                out.row_mut(r)[off..off + m.cols].copy_from_slice(m.row(r));
            }
            off += m.cols;
        }
        self.push(out, Op::ConcatCols(parts.to_vec()))
    }

    /// Stack row-wise (batch assembly: n 1×d vectors → n×d).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let cols = self.value(parts[0]).cols;
        let rows: usize = parts.iter().map(|&p| self.value(p).rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut off = 0;
        for &p in parts {
            let m = self.value(p);
            assert_eq!(m.cols, cols, "concat_rows ragged cols");
            for r in 0..m.rows {
                out.row_mut(off + r).copy_from_slice(m.row(r));
            }
            off += m.rows;
        }
        self.push(out, Op::ConcatRows(parts.to_vec()))
    }

    /// L2-normalise each row (zero rows stay zero).
    pub fn normalize_rows(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut out = x.clone();
        for r in 0..out.rows {
            let norm: f32 = out.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 0.0 {
                for v in out.row_mut(r) {
                    *v /= norm;
                }
            }
        }
        self.push(out, Op::NormalizeRows(a))
    }

    /// Cosine similarity of two 1×d vectors → 1×1.
    pub fn cosine(&mut self, a: Var, b: Var) -> Var {
        let va = self.value(a);
        let vb = self.value(b);
        assert_eq!(va.rows, 1);
        assert_eq!(vb.rows, 1);
        let c = crate::tensor::cosine(&va.data, &vb.data);
        self.push(Matrix::from_vec(1, 1, vec![c]), Op::Cosine(a, b))
    }

    /// `(a - target)²` on a 1×1 node → 1×1 loss.
    pub fn mse_scalar(&mut self, a: Var, target: f32) -> Var {
        let v = self.value(a).get(0, 0);
        self.push(
            Matrix::from_vec(1, 1, vec![(v - target).powi(2)]),
            Op::MseScalar { a, target },
        )
    }

    /// Mean cross-entropy of row-wise softmax(`logits`) against integer
    /// `targets` → 1×1 loss (the in-batch contrastive objective).
    pub fn cross_entropy_rows(&mut self, logits: Var, targets: &[usize]) -> Var {
        let l = self.value(logits);
        assert_eq!(l.rows, targets.len());
        let p = l.softmax_rows();
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            loss -= p.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::CrossEntropyRows {
                logits,
                targets: targets.to_vec(),
            },
        )
    }

    /// Reverse pass from the scalar `loss` node. Returns per-node
    /// gradients; index with [`Gradients::grad_of`].
    pub fn backward(&self, loss: Var) -> Gradients {
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        let l = &self.nodes[loss.0].value;
        assert_eq!((l.rows, l.cols), (1, 1), "loss must be scalar");
        grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..=loss.0).rev() {
            let Some(gout) = grads[i].clone() else {
                continue;
            };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let ga = gout.matmul(&self.nodes[b.0].value.transpose());
                    let gb = self.nodes[a.0].value.transpose().matmul(&gout);
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, b.0, gb);
                }
                Op::MatMulTransposeB(a, b) => {
                    // C = A·Bᵀ ⇒ dA = G·B, dB = Gᵀ·A.
                    let ga = gout.matmul(&self.nodes[b.0].value);
                    let gb = gout.transpose().matmul(&self.nodes[a.0].value);
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, b.0, gb);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, a.0, gout.clone());
                    accumulate(&mut grads, b.0, gout);
                }
                Op::AddRow { a, bias } => {
                    // Bias gradient: column sums.
                    let mut gb = Matrix::zeros(1, gout.cols);
                    for r in 0..gout.rows {
                        for (o, &g) in gb.data.iter_mut().zip(gout.row(r)) {
                            *o += g;
                        }
                    }
                    accumulate(&mut grads, a.0, gout);
                    accumulate(&mut grads, bias.0, gb);
                }
                Op::Scale { a, s } => {
                    accumulate(&mut grads, a.0, gout.scale(*s));
                }
                Op::Relu(a) => {
                    let x = &self.nodes[a.0].value;
                    let mut g = gout;
                    for (gv, &xv) in g.data.iter_mut().zip(&x.data) {
                        if xv <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    accumulate(&mut grads, a.0, g);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let mut g = gout;
                    for (gv, &yv) in g.data.iter_mut().zip(&y.data) {
                        *gv *= 1.0 - yv * yv;
                    }
                    accumulate(&mut grads, a.0, g);
                }
                Op::SoftmaxRows(a) => {
                    let s = &self.nodes[i].value;
                    let mut g = Matrix::zeros(s.rows, s.cols);
                    for r in 0..s.rows {
                        let dot: f32 = gout.row(r).iter().zip(s.row(r)).map(|(x, y)| x * y).sum();
                        for c in 0..s.cols {
                            g.set(r, c, s.get(r, c) * (gout.get(r, c) - dot));
                        }
                    }
                    accumulate(&mut grads, a.0, g);
                }
                Op::LayerNormRows { a, gain, bias } => {
                    let x = &self.nodes[a.0].value;
                    let gn = &self.nodes[gain.0].value;
                    let n = x.cols as f32;
                    let mut gx = Matrix::zeros(x.rows, x.cols);
                    let mut ggain = Matrix::zeros(1, x.cols);
                    let mut gbias = Matrix::zeros(1, x.cols);
                    for r in 0..x.rows {
                        let row = x.row(r);
                        let mean = row.iter().sum::<f32>() / n;
                        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
                        let inv = 1.0 / (var + LN_EPS).sqrt();
                        // dŷ = dy ∘ gain; xhat = (x-μ)·inv
                        let mut dxhat = vec![0.0f32; x.cols];
                        let mut xhat = vec![0.0f32; x.cols];
                        for c in 0..x.cols {
                            xhat[c] = (row[c] - mean) * inv;
                            dxhat[c] = gout.get(r, c) * gn.data[c];
                            ggain.data[c] += gout.get(r, c) * xhat[c];
                            gbias.data[c] += gout.get(r, c);
                        }
                        let mean_dxhat = dxhat.iter().sum::<f32>() / n;
                        let mean_dxhat_xhat =
                            dxhat.iter().zip(&xhat).map(|(d, h)| d * h).sum::<f32>() / n;
                        for c in 0..x.cols {
                            gx.set(
                                r,
                                c,
                                inv * (dxhat[c] - mean_dxhat - xhat[c] * mean_dxhat_xhat),
                            );
                        }
                    }
                    accumulate(&mut grads, a.0, gx);
                    accumulate(&mut grads, gain.0, ggain);
                    accumulate(&mut grads, bias.0, gbias);
                }
                Op::Gather { table, indices } => {
                    let t = &self.nodes[table.0].value;
                    let mut g = Matrix::zeros(t.rows, t.cols);
                    for (r, &idx) in indices.iter().enumerate() {
                        for (o, &v) in g.row_mut(idx).iter_mut().zip(gout.row(r)) {
                            *o += v;
                        }
                    }
                    accumulate(&mut grads, table.0, g);
                }
                Op::MeanRows(a) => {
                    let x = &self.nodes[a.0].value;
                    let n = x.rows.max(1) as f32;
                    let mut g = Matrix::zeros(x.rows, x.cols);
                    for r in 0..x.rows {
                        for (o, &v) in g.row_mut(r).iter_mut().zip(gout.row(0)) {
                            *o = v / n;
                        }
                    }
                    accumulate(&mut grads, a.0, g);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let m = &self.nodes[p.0].value;
                        let mut g = Matrix::zeros(m.rows, m.cols);
                        for r in 0..m.rows {
                            g.row_mut(r)
                                .copy_from_slice(&gout.row(r)[off..off + m.cols]);
                        }
                        off += m.cols;
                        accumulate(&mut grads, p.0, g);
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let m = &self.nodes[p.0].value;
                        let mut g = Matrix::zeros(m.rows, m.cols);
                        for r in 0..m.rows {
                            g.row_mut(r).copy_from_slice(gout.row(off + r));
                        }
                        off += m.rows;
                        accumulate(&mut grads, p.0, g);
                    }
                }
                Op::NormalizeRows(a) => {
                    // y = x/|x| per row ⇒ dx = (dy - y·(dy·y)) / |x|.
                    let x = &self.nodes[a.0].value;
                    let y = &self.nodes[i].value;
                    let mut g = Matrix::zeros(x.rows, x.cols);
                    for r in 0..x.rows {
                        let norm: f32 = x.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                        if norm == 0.0 {
                            continue;
                        }
                        let dot: f32 = gout.row(r).iter().zip(y.row(r)).map(|(d, v)| d * v).sum();
                        for c in 0..x.cols {
                            g.set(r, c, (gout.get(r, c) - y.get(r, c) * dot) / norm);
                        }
                    }
                    accumulate(&mut grads, a.0, g);
                }
                Op::Cosine(a, b) => {
                    let va = &self.nodes[a.0].value;
                    let vb = &self.nodes[b.0].value;
                    let na = va.norm();
                    let nb = vb.norm();
                    if na > 0.0 && nb > 0.0 {
                        let dot: f32 = va.data.iter().zip(&vb.data).map(|(x, y)| x * y).sum();
                        let c = dot / (na * nb);
                        let g = gout.get(0, 0);
                        let mut ga = Matrix::zeros(1, va.cols);
                        let mut gb = Matrix::zeros(1, vb.cols);
                        for idx in 0..va.cols {
                            ga.data[idx] =
                                g * (vb.data[idx] / (na * nb) - c * va.data[idx] / (na * na));
                            gb.data[idx] =
                                g * (va.data[idx] / (na * nb) - c * vb.data[idx] / (nb * nb));
                        }
                        accumulate(&mut grads, a.0, ga);
                        accumulate(&mut grads, b.0, gb);
                    }
                }
                Op::MseScalar { a, target } => {
                    let v = self.nodes[a.0].value.get(0, 0);
                    let g = gout.get(0, 0) * 2.0 * (v - target);
                    accumulate(&mut grads, a.0, Matrix::from_vec(1, 1, vec![g]));
                }
                Op::CrossEntropyRows { logits, targets } => {
                    let l = &self.nodes[logits.0].value;
                    let p = l.softmax_rows();
                    let n = targets.len() as f32;
                    let mut g = p.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        let v = g.get(r, t);
                        g.set(r, t, v - 1.0);
                    }
                    let scale = gout.get(0, 0) / n;
                    accumulate(&mut grads, logits.0, g.scale(scale));
                }
            }
        }
        Gradients { grads }
    }
}

fn accumulate(grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => *existing = existing.add(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Per-node gradients from a backward pass.
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v` (zeros if `v` did not influence
    /// the loss).
    pub fn grad_of(&self, v: Var, like: &Matrix) -> Matrix {
        self.grads[v.0]
            .clone()
            .unwrap_or_else(|| Matrix::zeros(like.rows, like.cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numeric gradient of `f` w.r.t. the matrix fed to it.
    fn numeric_grad(x: &Matrix, mut f: impl FnMut(&Matrix) -> f32) -> Matrix {
        let eps = 1e-3;
        let mut g = Matrix::zeros(x.rows, x.cols);
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            g.data[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
        }
        g
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32, what: &str) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols));
        for i in 0..a.data.len() {
            assert!(
                (a.data[i] - b.data[i]).abs() < tol,
                "{what}: analytic {} vs numeric {} at {i}",
                a.data[i],
                b.data[i]
            );
        }
    }

    /// Gradient-check a builder that maps one input matrix to a scalar
    /// loss var on a fresh tape.
    fn check(x: &Matrix, build: impl Fn(&mut Tape, Var) -> Var, tol: f32, what: &str) {
        let mut tape = Tape::new();
        let vx = tape.leaf(x.clone());
        let loss = build(&mut tape, vx);
        let grads = tape.backward(loss);
        let analytic = grads.grad_of(vx, x);
        let numeric = numeric_grad(x, |m| {
            let mut t = Tape::new();
            let v = t.leaf(m.clone());
            let l = build(&mut t, v);
            t.value(l).get(0, 0)
        });
        assert_close(&analytic, &numeric, tol, what);
    }

    fn rngm(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::xavier(r, c, &mut StdRng::seed_from_u64(seed))
    }

    /// Reduce any matrix var to a scalar via a fixed "sum of squares"
    /// style projection so gradients flow through every element:
    /// loss = mse(cosine(mean_rows(m), fixed_row), 1.0) would zero out
    /// too much, so instead multiply onto fixed vectors.
    fn to_scalar(t: &mut Tape, m: Var, seed: u64) -> Var {
        let (r, c) = {
            let v = t.value(m);
            (v.rows, v.cols)
        };
        let left = t.leaf(rngm(1, r, seed));
        let right = t.leaf(rngm(c, 1, seed + 1));
        let a = t.matmul(left, m);
        let s = t.matmul(a, right); // 1×1
        t.mse_scalar(s, 0.3)
    }

    #[test]
    fn grad_matmul() {
        let x = rngm(3, 4, 1);
        let w = rngm(4, 2, 2);
        check(
            &x,
            |t, vx| {
                let vw = t.leaf(w.clone());
                let y = t.matmul(vx, vw);
                to_scalar(t, y, 10)
            },
            2e-2,
            "matmul",
        );
    }

    #[test]
    fn grad_matmul_transpose_b() {
        let x = rngm(3, 4, 30);
        let other = rngm(2, 4, 31);
        check(
            &x,
            |t, vx| {
                let vo = t.leaf(other.clone());
                let y = t.matmul_transpose_b(vx, vo); // 3×2
                to_scalar(t, y, 32)
            },
            2e-2,
            "matmul_transpose_b (a)",
        );
        check(
            &other,
            |t, vo| {
                let vx = t.leaf(x.clone());
                let y = t.matmul_transpose_b(vx, vo);
                to_scalar(t, y, 33)
            },
            2e-2,
            "matmul_transpose_b (b)",
        );
    }

    #[test]
    fn grad_add_and_add_row() {
        let x = rngm(3, 4, 3);
        check(
            &x,
            |t, vx| {
                let other = t.leaf(rngm(3, 4, 4));
                let bias = t.leaf(rngm(1, 4, 5));
                let y = t.add(vx, other);
                let y = t.add_row(y, bias);
                to_scalar(t, y, 11)
            },
            2e-2,
            "add/add_row",
        );
    }

    #[test]
    fn grad_relu_tanh_scale() {
        let x = rngm(2, 5, 6);
        check(
            &x,
            |t, vx| {
                let y = t.scale(vx, 1.7);
                let y = t.tanh(y);
                let y = t.relu(y);
                to_scalar(t, y, 12)
            },
            2e-2,
            "relu/tanh/scale",
        );
    }

    #[test]
    fn grad_softmax_rows() {
        let x = rngm(3, 4, 7);
        check(
            &x,
            |t, vx| {
                let y = t.softmax_rows(vx);
                to_scalar(t, y, 13)
            },
            2e-2,
            "softmax",
        );
    }

    #[test]
    fn grad_layer_norm() {
        let x = rngm(3, 6, 8);
        check(
            &x,
            |t, vx| {
                let gain = t.leaf(rngm(1, 6, 9));
                let bias = t.leaf(rngm(1, 6, 10));
                let y = t.layer_norm_rows(vx, gain, bias);
                to_scalar(t, y, 14)
            },
            3e-2,
            "layer_norm",
        );
    }

    #[test]
    fn grad_layer_norm_params() {
        // Check gain/bias gradients too.
        let gain0 = rngm(1, 6, 20);
        let x = rngm(3, 6, 21);
        check(
            &gain0,
            |t, vg| {
                let vx = t.leaf(x.clone());
                let bias = t.leaf(rngm(1, 6, 22));
                let y = t.layer_norm_rows(vx, vg, bias);
                to_scalar(t, y, 15)
            },
            3e-2,
            "layer_norm gain",
        );
    }

    #[test]
    fn grad_gather() {
        let table = rngm(5, 4, 11);
        check(
            &table,
            |t, vt| {
                let y = t.gather(vt, &[0, 2, 2, 4]);
                to_scalar(t, y, 16)
            },
            2e-2,
            "gather",
        );
    }

    #[test]
    fn grad_mean_rows_and_concat() {
        let x = rngm(4, 3, 12);
        check(
            &x,
            |t, vx| {
                let a = t.mean_rows(vx);
                let b = t.mean_rows(vx);
                let y = t.concat_cols(&[a, b]);
                to_scalar(t, y, 17)
            },
            2e-2,
            "mean/concat",
        );
    }

    #[test]
    fn grad_concat_rows_and_normalize() {
        let x = rngm(2, 4, 18);
        check(
            &x,
            |t, vx| {
                let other = t.leaf(rngm(1, 4, 19));
                let stacked = t.concat_rows(&[vx, other]);
                let normed = t.normalize_rows(stacked);
                to_scalar(t, normed, 18)
            },
            2e-2,
            "concat_rows/normalize_rows",
        );
    }

    #[test]
    fn grad_cosine() {
        let a = rngm(1, 6, 13);
        let b = rngm(1, 6, 14);
        check(
            &a,
            |t, va| {
                let vb = t.leaf(b.clone());
                let c = t.cosine(va, vb);
                t.mse_scalar(c, 1.0)
            },
            2e-2,
            "cosine",
        );
    }

    #[test]
    fn grad_cross_entropy() {
        let logits = rngm(3, 5, 15);
        check(
            &logits,
            |t, vl| t.cross_entropy_rows(vl, &[1, 0, 4]),
            2e-2,
            "cross_entropy",
        );
    }

    #[test]
    fn gradient_descent_reduces_cosine_loss() {
        // End-to-end sanity: nudge a vector toward another via cosine loss.
        let mut a = rngm(1, 8, 16);
        let b = rngm(1, 8, 17);
        let mut losses = Vec::new();
        for _ in 0..50 {
            let mut t = Tape::new();
            let va = t.leaf(a.clone());
            let vb = t.leaf(b.clone());
            let c = t.cosine(va, vb);
            let loss = t.mse_scalar(c, 1.0);
            losses.push(t.value(loss).get(0, 0));
            let grads = t.backward(loss);
            let g = grads.grad_of(va, &a);
            for (av, gv) in a.data.iter_mut().zip(&g.data) {
                *av -= 0.5 * gv;
            }
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.05),
            "loss did not drop: {losses:?}"
        );
    }
}
