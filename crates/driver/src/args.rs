//! The one command-line parser: every `cminc` command and every bench
//! binary declares the flags it takes through [`Args`].
//!
//! Each getter declares one flag (or the positional arguments) and returns
//! what was given; [`Args::finish`] then rejects whatever no getter
//! claimed, a flag missing its value and a value that did not parse. A
//! command calls every getter before it reads or writes anything, so a bad
//! command line exits 2 having done nothing. The declarations also make the
//! command's usage line, which every rejection ends with.

use std::str::FromStr;

/// A command line, checked against the flags its command declares.
#[derive(Debug)]
pub struct Args {
    bin: String,
    argv: Vec<String>,
    used: Vec<bool>,
    usage: Vec<String>,
    positional_meta: Option<&'static str>,
    error: Option<String>,
}

/// Parses a flag value with [`str::parse`]: the `parse` argument of
/// [`Args::value`] for numbers.
pub fn parsed<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// Whether `arg` is spelled as a flag (`-o`, `--config`); a lone `-` is
/// not.
fn is_flag(arg: &str) -> bool {
    arg.len() > 1 && arg.starts_with('-')
}

impl Args {
    /// Starts checking `argv` (the arguments after the command's name) for
    /// the command `bin`, as its usage line names it.
    pub fn new(bin: impl Into<String>, argv: impl IntoIterator<Item = String>) -> Args {
        let argv: Vec<String> = argv.into_iter().collect();
        let used = vec![false; argv.len()];
        Args { bin: bin.into(), argv, used, usage: Vec::new(), positional_meta: None, error: None }
    }

    /// Declares the switch `flag`; true when it was given.
    pub fn switch(&mut self, flag: &'static str) -> bool {
        self.usage.push(format!("[{flag}]"));
        let mut given = false;
        for i in 0..self.argv.len() {
            if !self.used[i] && self.argv[i] == flag {
                self.used[i] = true;
                given = true;
            }
        }
        given
    }

    /// Declares `flag` with a value described by `meta` in the usage line,
    /// and returns the value `parse` accepted (`None` when the flag was not
    /// given; a missing or rejected value is reported by [`Args::finish`]).
    pub fn value<T>(
        &mut self,
        flag: &'static str,
        meta: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        self.take(&[flag], meta, parse)
    }

    /// Declares `flag` with a file path (or other free-text) value.
    pub fn path(&mut self, flag: &'static str, meta: &'static str) -> Option<String> {
        self.value(flag, meta, |v| Some(v.to_string()))
    }

    /// Declares the worker count `-j N`, also spelled `--jobs N`.
    pub fn jobs(&mut self) -> Option<usize> {
        self.take(&["-j", "--jobs"], "N", parsed)
    }

    /// [`Args::value`] for a flag with several spellings; messages name the
    /// last.
    fn take<T>(
        &mut self,
        names: &[&'static str],
        meta: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        self.usage.push(format!("[{} {meta}]", names.join("|")));
        let flag = names[names.len() - 1];
        let mut value = None;
        for i in 0..self.argv.len() {
            if self.used[i] || !names.contains(&self.argv[i].as_str()) {
                continue;
            }
            self.used[i] = true;
            let Some(v) = self.argv.get(i + 1).filter(|v| !v.starts_with("--")) else {
                self.fail(format!("{flag} needs a value ({meta})"));
                continue;
            };
            self.used[i + 1] = true;
            match parse(v) {
                Some(x) => value = Some(x),
                None => self.fail(format!("bad value `{v}` for {flag} (want {meta})")),
            }
        }
        value
    }

    /// Declares the positional arguments, described by `meta` in the usage
    /// line, and returns them in order: every argument that no flag claimed
    /// and that is not spelled as a flag. Call it after the flag getters,
    /// which claim their values.
    pub fn positionals(&mut self, meta: &'static str) -> Vec<String> {
        self.positional_meta = Some(meta);
        let mut out = Vec::new();
        for i in 0..self.argv.len() {
            if !self.used[i] && !is_flag(&self.argv[i]) {
                self.used[i] = true;
                out.push(self.argv[i].clone());
            }
        }
        out
    }

    fn fail(&mut self, message: String) {
        self.error.get_or_insert(message);
    }

    /// The first problem with the command line, as an error message ending
    /// in the usage line; [`Args::finish`] prints it and exits.
    pub fn verdict(mut self) -> Result<(), String> {
        if self.error.is_none() {
            if let Some(i) = self.used.iter().position(|u| !u) {
                let arg = &self.argv[i];
                let kind = if is_flag(arg) { "unknown flag" } else { "unexpected argument" };
                self.error = Some(format!("{kind} `{arg}`"));
            }
        }
        let Some(e) = self.error else { return Ok(()) };
        let usage: Vec<&str> =
            self.positional_meta.into_iter().chain(self.usage.iter().map(String::as_str)).collect();
        Err(format!("{}: {e}\nusage: {} {}", self.bin, self.bin, usage.join(" ")))
    }

    /// Ends the declarations: on any problem, prints it with the usage line
    /// and exits with status 2.
    pub fn finish(self) {
        if let Err(e) = self.verdict() {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A command declaring `--modules N,N,...`, `-j`, `--out FILE`,
    /// `--check` and positional inputs.
    type Declared = (Option<Vec<usize>>, Option<usize>, Option<String>, bool, Vec<String>);

    fn declare(argv: &[&str]) -> Result<Declared, String> {
        let mut a = Args::new("bench", argv.iter().map(|s| s.to_string()));
        let modules = a.value("--modules", "N,N,...", |v| {
            v.split(',').map(|n| parsed(n).filter(|&n| n > 0)).collect::<Option<_>>()
        });
        let jobs = a.jobs();
        let out = a.path("--out", "FILE");
        let check = a.switch("--check");
        let inputs = a.positionals("<in>...");
        a.verdict().map(|()| (modules, jobs, out, check, inputs))
    }

    #[test]
    fn declared_flags_parse() {
        let (modules, jobs, out, check, inputs) =
            declare(&["a", "--modules", "8,64", "--check", "b", "--out", "x.json"]).unwrap();
        assert_eq!(modules, Some(vec![8, 64]));
        assert_eq!(jobs, None);
        assert_eq!(out.as_deref(), Some("x.json"));
        assert!(check);
        assert_eq!(inputs, ["a", "b"]);
        assert_eq!(declare(&[]).unwrap(), (None, None, None, false, vec![]));
        for spelling in ["-j", "--jobs"] {
            assert_eq!(declare(&[spelling, "4"]).unwrap().1, Some(4), "{spelling}");
        }
    }

    #[test]
    fn bad_arguments_name_the_flag_with_the_usage_line() {
        for (argv, want) in [
            (&["--modlues", "8", "--check"][..], "unknown flag `--modlues`"),
            (&["-x"][..], "unknown flag `-x`"),
            (&["--modules"][..], "--modules needs a value"),
            (&["--modules", "--check"][..], "--modules needs a value"),
            (&["--modules", "8,x"][..], "bad value `8,x` for --modules"),
            (&["--modules", "0"][..], "bad value `0` for --modules"),
            (&["-j", "many"][..], "bad value `many` for --jobs"),
        ] {
            let err = declare(argv).unwrap_err();
            assert!(err.starts_with(&format!("bench: {want}")), "{argv:?}: {err}");
            assert!(
                err.ends_with(
                    "\nusage: bench <in>... [--modules N,N,...] [-j|--jobs N] [--out FILE] [--check]"
                ),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn without_positionals_a_stray_argument_is_rejected() {
        let mut a = Args::new("tool", ["--check", "stray"].map(String::from));
        assert!(a.switch("--check"));
        let err = a.verdict().unwrap_err();
        assert_eq!(err, "tool: unexpected argument `stray`\nusage: tool [--check]");
    }
}
