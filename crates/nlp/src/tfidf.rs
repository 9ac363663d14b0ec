//! TF-IDF vectors and cosine retrieval — the paper's IR baseline and the
//! coarse first stage of its IR+DL composites (top-50 shortlist, §7.3).

use crate::tokenizer::tokenize;
use std::collections::BTreeMap;

/// A fitted TF-IDF vectorizer plus the (sparse) vectors of its corpus.
#[derive(Debug, Clone)]
pub struct TfIdf {
    /// term → (dimension index, document frequency).
    term_index: BTreeMap<String, (usize, usize)>,
    /// Number of fitted documents.
    n_docs: usize,
    /// Sparse corpus vectors: per document, sorted (dim, weight) pairs,
    /// L2-normalised.
    doc_vectors: Vec<Vec<(usize, f32)>>,
}

impl TfIdf {
    /// Fit on a document corpus.
    pub fn fit<'a>(docs: impl IntoIterator<Item = &'a str>) -> TfIdf {
        let docs: Vec<Vec<String>> = docs.into_iter().map(tokenize).collect();
        let mut term_index: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for doc in &docs {
            let mut seen: Vec<&str> = doc.iter().map(String::as_str).collect();
            seen.sort_unstable();
            seen.dedup();
            for term in seen {
                let next = term_index.len();
                let entry = term_index.entry(term.to_string()).or_insert((next, 0));
                entry.1 += 1;
            }
        }
        let n_docs = docs.len();
        let mut fitted = TfIdf {
            term_index,
            n_docs,
            doc_vectors: Vec::new(),
        };
        fitted.doc_vectors = docs.iter().map(|d| fitted.vectorize_tokens(d)).collect();
        fitted
    }

    /// Number of fitted documents.
    pub fn len(&self) -> usize {
        self.n_docs
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.n_docs == 0
    }

    /// Smoothed IDF of a term.
    fn idf(&self, df: usize) -> f32 {
        ((1.0 + self.n_docs as f32) / (1.0 + df as f32)).ln() + 1.0
    }

    fn vectorize_tokens(&self, tokens: &[String]) -> Vec<(usize, f32)> {
        let mut tf: BTreeMap<usize, f32> = BTreeMap::new();
        let mut idfs: BTreeMap<usize, f32> = BTreeMap::new();
        for tok in tokens {
            if let Some(&(dim, df)) = self.term_index.get(tok) {
                *tf.entry(dim).or_default() += 1.0;
                idfs.insert(dim, self.idf(df));
            }
        }
        let mut vec: Vec<(usize, f32)> = tf
            .into_iter()
            .map(|(dim, f)| (dim, f * idfs[&dim]))
            .collect();
        let norm = vec.iter().map(|(_, w)| w * w).sum::<f32>().sqrt();
        if norm > 0.0 {
            for (_, w) in &mut vec {
                *w /= norm;
            }
        }
        vec
    }

    /// TF-IDF vector of an arbitrary query text (L2-normalised sparse).
    pub fn vectorize(&self, text: &str) -> Vec<(usize, f32)> {
        self.vectorize_tokens(&tokenize(text))
    }

    /// Cosine similarity of the query against fitted document `doc`.
    pub fn similarity(&self, query: &[(usize, f32)], doc: usize) -> f32 {
        sparse_dot(query, &self.doc_vectors[doc])
    }

    /// Indices of the `k` most similar fitted documents, best first.
    ///
    /// Partial selection through [`crate::topk`] — O(n log k) instead of
    /// scoring-then-full-sort, with the identical ordering contract
    /// (descending score, ties to the lower document index).
    pub fn top_k(&self, text: &str, k: usize) -> Vec<(usize, f32)> {
        let q = self.vectorize(text);
        crate::topk::top_k_scored((0..self.n_docs).map(|d| (d, self.similarity(&q, d))), k)
    }
}

/// Dot product of two sorted sparse vectors.
fn sparse_dot(a: &[(usize, f32)], b: &[(usize, f32)]) -> f32 {
    let (mut i, mut j, mut dot) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCS: [&str; 4] = [
        "Specifies the IPv4 address of a peer.",
        "Specifies the autonomous system number of the peer.",
        "Identifier of the VLAN, an integer.",
        "Sets the priority of the device in the spanning tree instance.",
    ];

    #[test]
    fn identical_text_scores_highest() {
        let t = TfIdf::fit(DOCS.iter().copied());
        for (i, d) in DOCS.iter().enumerate() {
            let top = t.top_k(d, 1);
            assert_eq!(top[0].0, i, "doc {i} not its own best match");
            assert!(top[0].1 > 0.99);
        }
    }

    #[test]
    fn related_text_ranks_above_unrelated() {
        let t = TfIdf::fit(DOCS.iter().copied());
        let top = t.top_k("the AS number of the BGP neighbor", 4);
        assert_eq!(top[0].0, 1, "AS-number doc should rank first: {top:?}");
    }

    #[test]
    fn unknown_terms_yield_zero_similarity() {
        let t = TfIdf::fit(DOCS.iter().copied());
        let q = t.vectorize("zzz qqq www");
        assert!(q.is_empty());
        assert_eq!(t.similarity(&q, 0), 0.0);
    }

    #[test]
    fn vectors_are_normalised() {
        let t = TfIdf::fit(DOCS.iter().copied());
        let v = t.vectorize(DOCS[0]);
        let norm: f32 = v.iter().map(|(_, w)| w * w).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn idf_downweights_common_terms() {
        let t = TfIdf::fit(DOCS.iter().copied());
        // "the" appears in all docs, "vlan" in one.
        let v = t.vectorize("the vlan");
        let the_dim = t.term_index["the"].0;
        let vlan_dim = t.term_index["vlan"].0;
        let the_w = v.iter().find(|(d, _)| *d == the_dim).unwrap().1;
        let vlan_w = v.iter().find(|(d, _)| *d == vlan_dim).unwrap().1;
        assert!(vlan_w > the_w, "idf failed: vlan {vlan_w} vs the {the_w}");
    }

    #[test]
    fn top_k_truncates_and_orders() {
        let t = TfIdf::fit(DOCS.iter().copied());
        let top = t.top_k("peer address", 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn sparse_dot_handles_disjoint() {
        assert_eq!(sparse_dot(&[(0, 1.0)], &[(1, 1.0)]), 0.0);
        assert_eq!(
            sparse_dot(&[(1, 2.0), (3, 1.0)], &[(1, 0.5), (2, 9.0)]),
            1.0
        );
    }
}
