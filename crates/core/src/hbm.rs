//! The HBM data stream.
//!
//! The paper's design streams data items from HBM **contiguously** alongside
//! the instruction stream: matrix nonzeros for MAC instructions, vector
//! segments for `load_vec`, and so on (green arrows in Figure 4). Because
//! the compiler lays out the data in exactly the order instructions consume
//! it, the model is a simple cursor over a word array with bandwidth
//! accounting: an instruction may consume at most `C` words (one per lane),
//! which is precisely the per-cycle HBM budget that defines `C`.

/// A contiguous HBM read stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HbmStream {
    data: Vec<f64>,
    pos: usize,
}

impl HbmStream {
    /// Creates a stream over the given word sequence.
    pub fn new(data: Vec<f64>) -> Self {
        HbmStream { data, pos: 0 }
    }

    /// An empty stream (for programs that consume no HBM data).
    pub fn empty() -> Self {
        HbmStream::default()
    }

    /// Appends words to the end of the stream.
    pub fn extend_from_slice(&mut self, words: &[f64]) {
        self.data.extend_from_slice(words);
    }

    /// Pops the next word, or `None` when exhausted.
    pub fn next_word(&mut self) -> Option<f64> {
        let w = self.data.get(self.pos).copied();
        if w.is_some() {
            self.pos += 1;
        }
        w
    }

    /// Words consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Words remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Total length of the stream.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the stream holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_in_order_and_counts() {
        let mut s = HbmStream::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.next_word(), Some(1.0));
        assert_eq!(s.next_word(), Some(2.0));
        assert_eq!(s.consumed(), 2);
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.next_word(), Some(3.0));
        assert_eq!(s.next_word(), None);
    }

    #[test]
    fn extend_appends() {
        let mut s = HbmStream::empty();
        assert!(s.is_empty());
        s.extend_from_slice(&[4.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.next_word(), Some(4.0));
    }
}
