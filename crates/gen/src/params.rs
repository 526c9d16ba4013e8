//! One typed reader for named parameters, whichever front end they arrive
//! through: `hcm`'s `--name value` flags or the daemon's query string. A
//! front end says where a raw value comes from and how its errors read; the
//! typed reads and the allowed-set check are written once, here, and the
//! generator table ([`crate::mode`]) reads through them.

use std::str::FromStr;

/// Named parameters from one front end. Errors are the front end's own
/// messages.
pub trait Params {
    /// The raw value of `name`, when one was given.
    fn raw(&self, name: &str) -> Option<&str>;

    /// Every parameter name given, for [`Params::check_allowed`].
    fn names(&self) -> impl Iterator<Item = &str>;

    /// The message for a required parameter that was not given.
    fn missing(name: &str) -> String;

    /// The message for a value that does not parse.
    fn malformed(name: &str, raw: &str) -> String;

    /// The message for a parameter outside `allowed`.
    fn unknown(name: &str, allowed: &[&str]) -> String;

    /// Refuses the first parameter (in [`Params::names`] order) outside
    /// `allowed`. Allocates only to build the error.
    fn check_allowed(&self, allowed: &[&str]) -> Result<(), String> {
        match self.names().find(|name| !allowed.contains(name)) {
            Some(name) => Err(Self::unknown(name, allowed)),
            None => Ok(()),
        }
    }

    /// The typed value of a required parameter.
    fn require<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.raw(name).ok_or_else(|| Self::missing(name))?;
        raw.parse().map_err(|_| Self::malformed(name, raw))
    }

    /// The typed value of `name`, or `default` when it was not given.
    fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.raw(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| Self::malformed(name, raw)),
        }
    }
}
