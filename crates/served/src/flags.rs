//! `--key value` command-line flags, shared by the `tuned` and `evald`
//! binaries.
//!
//! A command declares the flags it knows and everything else on its
//! command line is an error, so a typo (`--gen 5` for `--gens 5`) stops
//! the command instead of silently running it with the default.

/// One command's parsed flags: `(flag, value)` in command-line order, a
/// bare switch carrying the empty value.
pub struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Reads `args` against the flags a command knows, given as two
    /// whitespace-separated lists: each of `valued` takes the next
    /// argument as its value, each of `switches` stands alone.
    ///
    /// # Errors
    /// `unknown flag '--x'`, a valued flag with no value, or an argument
    /// that is no flag at all.
    pub fn new(args: &'a [String], valued: &str, switches: &str) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if valued.split_whitespace().any(|f| f == arg) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.push((arg, value));
            } else if switches.split_whitespace().any(|f| f == arg) {
                flags.push((arg, ""));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}'"));
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        Ok(Flags(flags))
    }

    /// The value of `key`; the last one wins when the flag is repeated.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.get_all(key).pop()
    }

    /// Every value of a repeatable flag, in command-line order.
    #[must_use]
    pub fn get_all(&self, key: &str) -> Vec<&'a str> {
        let of_key = self.0.iter().filter(|(k, _)| *k == key);
        of_key.map(|(_, v)| *v).collect()
    }

    /// The value of `key` parsed as a `T`.
    ///
    /// # Errors
    /// The value does not parse.
    pub fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for {key}: '{v}'")))
            .transpose()
    }

    /// Presence of a bare (valueless) switch like `--online`.
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}
