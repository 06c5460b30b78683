//! Deliberately nondeterministic sources, scanned (never compiled) by
//! the `restore-audit` tests: `determinism.rs` holds the determinism
//! lint's canaries. Each defect there must keep producing its finding —
//! if the lint stops seeing them, the lint regressed, not the fixture.
