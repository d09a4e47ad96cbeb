//! Test support shared by the integration suites.

pub mod reference;
