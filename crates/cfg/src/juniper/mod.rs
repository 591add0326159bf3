//! Juniper JunOS configuration: brace-tree lexer, AST and extraction.
//!
//! JunOS configs are hierarchical: `keyword args { children }` or
//! `keyword args;`. Parsing happens in two stages — a generic statement-tree
//! parser ([`tree`]) that preserves spans, then typed extraction into the
//! typed AST for the subsystems Campion analyzes.

mod ast;
mod parser;
pub mod setstyle;
pub mod tree;

pub use ast::*;
pub use parser::parse_juniper;
pub(crate) use parser::parse_juniper_set;

#[cfg(test)]
mod tests;
