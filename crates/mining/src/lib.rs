//! # dpe-mining — distance-based data mining
//!
//! The mining algorithms the paper's introduction motivates, all operating
//! purely on a [`dpe_distance::DistanceMatrix`] — which is the whole point:
//! if encryption preserves pairwise distances (Definition 1), every
//! algorithm here produces **identical** output on plaintext and ciphertext
//! inputs. The M1 experiment checks exactly that.
//!
//! * [`mod@kmedoids`] — k-medoids in the style of Park & Jun \[5\];
//! * [`mod@dbscan`] — density-based clustering, Ester et al. \[4\];
//! * [`hierarchical`] — agglomerative clustering: complete link (Defays
//!   \[3\]), single link (SLINK) and average link (UPGMA);
//! * [`outliers`] — Knorr–Ng DB(p, D) distance-based outliers \[6\];
//! * [`mod@lof`] — Local Outlier Factor (Breunig et al.), the density-based
//!   outlier score;
//! * [`knn`] — k-nearest-neighbour queries ([`knn_among`] over any subset);
//! * [`range`] — ε-neighbourhood range queries (DBSCAN's region query as a
//!   standalone serving primitive; [`range_among`] over any subset);
//! * [`apriori`] — frequent itemsets and association rules (the encrypted
//!   OLAP-log use case of the paper's reference \[17\]);
//! * [`agreement`] — Rand index / adjusted Rand index to quantify
//!   plaintext-vs-ciphertext agreement (1.0 everywhere under DPE);
//! * [`labels`] — stable flat-label canonicalization (noise = −1, clusters
//!   renumbered by first member), the wire form served clustering answers
//!   are fingerprinted and cached under.
//!
//! Algorithms are deterministic: ties break on the lower index, k-medoids
//! seeds with a deterministic greedy (no RNG), so equal distance matrices
//! imply equal outputs — no flaky "identical" assertions. There is one
//! neighbour order, on `(distance, index)` pairs: distance NaN-last by
//! [`dpe_distance::nan_last_cmp`], then index. One private kernel gathers
//! a row's pairs and selects the k-th in that order; [`knn_among`] sorts
//! the k before it, and [`lof()`] keeps every pair within the k-th's
//! distance and sorts only those.

#![forbid(unsafe_code)]

pub mod agreement;
pub mod apriori;
pub mod dbscan;
pub mod hierarchical;
pub mod kmedoids;
pub mod knn;
pub mod labels;
pub mod lof;
pub mod outliers;
pub mod range;

pub use agreement::{adjusted_rand_index, rand_index};
pub use apriori::{
    association_rules, frequent_id_itemsets, frequent_itemsets, FrequentItemset, Rule,
};
pub use dbscan::{dbscan, DbscanConfig, DbscanLabel};
pub use hierarchical::{
    agglomerative, average_link, complete_link, single_link, Dendrogram, Linkage, Merge,
};
pub use kmedoids::{kmedoids, KMedoidsResult};
pub use knn::{knn_among, knn_indices};
pub use labels::{canonical_dbscan_labels, canonical_labels, NOISE};
pub use lof::{lof, lof_outliers, LofConfig};
pub use outliers::{db_outliers, OutlierConfig};
pub use range::{range_among, range_indices};
