use std::error::Error;
use std::fmt;

/// Errors produced by shape-sensitive tensor operations.
///
/// Every variant carries enough context to diagnose the failing call without
/// a debugger: the offending shapes, axes, or lengths are embedded in the
/// error value and rendered by its `Display` implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands were expected to have identical shapes.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Vec<usize>,
        /// Shape of the right-hand operand.
        right: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The flat data length does not match the product of the shape dims.
    LengthMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Number of elements actually provided.
        len: usize,
    },
    /// An axis index was out of range for the tensor's rank.
    AxisOutOfRange {
        /// The requested axis.
        axis: usize,
        /// The tensor's rank (number of dimensions).
        ndim: usize,
    },
    /// A reshape was requested to a shape with a different element count.
    ReshapeMismatch {
        /// Original shape.
        from: Vec<usize>,
        /// Requested shape.
        to: Vec<usize>,
    },
    /// The operation requires a tensor of a specific rank.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        got: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// Convolution geometry is impossible (kernel larger than padded input,
    /// zero stride, or empty output).
    InvalidConvGeometry {
        /// Human-readable description of the geometry problem.
        reason: String,
    },
    /// A slice range fell outside the tensor bounds.
    SliceOutOfRange {
        /// The axis being sliced.
        axis: usize,
        /// Requested start index.
        start: usize,
        /// Requested end index (exclusive).
        end: usize,
        /// Size of that axis.
        size: usize,
    },
    /// An argument had an invalid value (e.g. zero-sized dimension where
    /// not permitted, non-finite scalar where finite required).
    InvalidArgument {
        /// Human-readable description of the invalid argument.
        reason: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in `{op}`: left operand {left:?} vs right operand {right:?}"
            ),
            TensorError::LengthMismatch { shape, len } => write!(
                f,
                "data length {len} does not match shape {shape:?} ({} elements expected)",
                shape.iter().product::<usize>()
            ),
            TensorError::AxisOutOfRange { axis, ndim } => {
                write!(f, "axis {axis} out of range for tensor of rank {ndim}")
            }
            TensorError::ReshapeMismatch { from, to } => write!(
                f,
                "cannot reshape {from:?} ({} elements) into {to:?} ({} elements)",
                from.iter().product::<usize>(),
                to.iter().product::<usize>()
            ),
            TensorError::RankMismatch { expected, got, op } => {
                write!(f, "`{op}` expects rank {expected}, got rank {got}")
            }
            TensorError::InvalidConvGeometry { reason } => {
                write!(f, "invalid convolution geometry: {reason}")
            }
            TensorError::SliceOutOfRange {
                axis,
                start,
                end,
                size,
            } => write!(
                f,
                "slice {start}..{end} out of range for axis {axis} of size {size}"
            ),
            TensorError::InvalidArgument { reason } => {
                write!(f, "invalid argument: {reason}")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::ShapeMismatch {
            left: vec![2, 3],
            right: vec![3, 2],
            op: "add",
        };
        let msg = err.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.contains("[3, 2]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn length_mismatch_reports_expected_count() {
        let err = TensorError::LengthMismatch {
            shape: vec![2, 5],
            len: 7,
        };
        assert!(err.to_string().contains("10 elements expected"));
    }
}
