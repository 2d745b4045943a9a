//! # dpe — Distance-Preserving Encryption for SQL query logs
//!
//! Facade crate re-exporting the whole workspace: a faithful reproduction of
//! *"Distance-Based Data Mining over Encrypted Data"* (Tex, Schäler, Böhm —
//! ICDE 2018). See the individual crates for the subsystems:
//!
//! * [`core`] — the paper's contribution: DPE, c-equivalence, the KIT-DPE
//!   procedure, the PPE taxonomy (Fig. 1) and Table I derivation.
//! * [`sql`], [`minidb`], [`cryptdb`] — SQL substrate: parser, in-memory
//!   relational engine, CryptDB-style onion encryption.
//! * [`crypto`], [`ope`], [`paillier`], [`bignum`] — property-preserving
//!   encryption classes (PROB/DET/JOIN/OPE/HOM) built from scratch,
//!   including format-preserving encryption (FPE) and mutable
//!   order-preserving encoding (mOPE) as alternative class instances.
//! * [`distance`] — the four query-distance measures of Table I.
//! * [`mining`] — distance-based mining algorithms (clustering, outliers,
//!   LOF, association rules).
//! * [`server`] — the sharded batch-serving engine answering concurrent
//!   kNN/LOF/range requests over the encrypted store (per-shard batch
//!   dispatch + epoch-keyed LRU response cache).
//! * [`durability`] — per-shard write-ahead log + epoch-consistent
//!   snapshots behind the server: crash recovery replays to bit-identical
//!   responses.
//! * [`workload`] — synthetic SkyServer-like query-log generator.
//! * [`attacks`] — the passive attacks of the threat model, used to validate
//!   Fig. 1 empirically.
//! * [`graphdpe`] — KIT-DPE instantiated a second time, for labelled
//!   graphs: the paper's "arbitrary data" claim exercised end-to-end.

#![forbid(unsafe_code)]

pub use dpe_attacks as attacks;
pub use dpe_bignum as bignum;
pub use dpe_core as core;
pub use dpe_cryptdb as cryptdb;
pub use dpe_crypto as crypto;
pub use dpe_distance as distance;
pub use dpe_durability as durability;
pub use dpe_graphdpe as graphdpe;
pub use dpe_minidb as minidb;
pub use dpe_mining as mining;
pub use dpe_ope as ope;
pub use dpe_paillier as paillier;
pub use dpe_server as server;
pub use dpe_sql as sql;
pub use dpe_workload as workload;
