//! Element-wise non-linearities applied after the GNN `Update` step.
//!
//! The paper's incremental model applies deltas *before* the non-linearity of
//! the next layer (the mailbox stores pre-activation aggregate changes), so
//! the engine only ever needs forward application of these functions — no
//! gradients.

/// The non-linearity applied to a layer's output (`sigma` in Eqn. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit, the default for all paper workloads.
    #[default]
    Relu,
    /// Identity (no non-linearity); used for final layers that emit logits
    /// and in tests where linearity end-to-end makes exactness easy to verify.
    Identity,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a single scalar.
    #[inline]
    pub fn apply_scalar(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Tanh => x.tanh(),
        }
    }

    /// Applies the activation element-wise, in place.
    pub fn apply(self, values: &mut [f32]) {
        if self == Activation::Identity {
            return;
        }
        for v in values.iter_mut() {
            *v = self.apply_scalar(*v);
        }
    }

    /// Applies the activation to a borrowed slice, returning a new vector.
    pub fn applied(self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        self.apply(&mut out);
        out
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Activation::Relu => "relu",
            Activation::Identity => "identity",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Tanh => "tanh",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut v = vec![-1.0, 0.0, 2.0];
        Activation::Relu.apply(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn identity_is_noop() {
        let v = vec![-1.0, 3.0];
        assert_eq!(Activation::Identity.applied(&v), v);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        assert_eq!(Activation::LeakyRelu.apply_scalar(-100.0), -1.0);
        assert_eq!(Activation::LeakyRelu.apply_scalar(5.0), 5.0);
    }

    #[test]
    fn tanh_saturates() {
        assert!(Activation::Tanh.apply_scalar(100.0) <= 1.0);
        assert!(Activation::Tanh.apply_scalar(-100.0) >= -1.0);
    }

    #[test]
    fn default_is_relu() {
        assert_eq!(Activation::default(), Activation::Relu);
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::Identity.to_string(), "identity");
        assert_eq!(Activation::LeakyRelu.to_string(), "leaky_relu");
        assert_eq!(Activation::Tanh.to_string(), "tanh");
    }
}
