//! # nassim-mapper
//!
//! The NAssim Mapper (§6 of the paper): parameter-level VDM→UDM mapping
//! via context embeddings and similarity, evaluated exactly as Table 5 /
//! Table 6 (Appendix D) do.
//!
//! * [`context`] — context extraction c(p): the named text sequences
//!   attached to a VDM parameter (parameter name, CLI template, parameter
//!   description, parent views, function description) and to a UDM leaf
//!   (name, annotation, path, value type);
//! * [`models`] — the compared mappers: **IR** (TF-IDF), **DL** (any
//!   sentence [`models::Embedder`] — SBERT-like, SimCSE-like or NetBERT),
//!   and **IR+DL** composites (IR shortlist of 50, DL re-rank), all
//!   scoring with Eq. 2's weighted row-wise cosine;
//! * [`eval`] — recall@top-k and MRR over ground-truth alignments, plus
//!   the resolver that ties annotation entries to parsed-VDM parameters;
//! * [`finetune`](mod@finetune) — NetBERT domain adaptation: labelled context pairs
//!   with 1:10 negative sampling feeding the siamese objective (§6.3);
//! * [`retrieval`] — sub-linear candidate ranking behind
//!   [`retrieval::RetrievalMode`]: int8 quantized scanning and a
//!   deterministic IVF (k-means) index over pooled leaf embeddings, with
//!   exact f32 rescoring of the survivors.

pub mod context;
pub mod eval;
pub mod finetune;
pub mod models;
pub mod retrieval;

pub use context::{udm_leaf_context, vdm_param_context, Context};
pub use eval::{evaluate, EvalCase, EvalReport};
pub use finetune::{finetune, finetune_with_validation, FinetuneOptions, FinetuneReport};
pub use models::{
    leaf_embedding_key, Embedder, EmbeddingCache, EncoderEmbedder, Mapper, MapperIndex,
    NormalizedEmbedding, PreparedQuery,
};
pub use retrieval::{AnnCache, RetrievalMode, RetrievalStats, SublinearIndex};
