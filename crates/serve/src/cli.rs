//! Fail-fast command-line parsing shared by the `ringcnn-serve` and
//! `loadgen` bins. An argument the bin does not accept, a flag without
//! its value and a value that does not parse are errors naming the
//! flag — never a silent default: an operator whose `--workers two`
//! quietly serves with the default is measuring something else than
//! they think.

use std::str::FromStr;

/// Splits `args` (program name first) into `(flag, value)` pairs.
/// `valued` flags consume the argument after them; `switches` stand
/// alone and pair with `""`.
///
/// # Errors
///
/// A message naming the first argument that is neither, or the valued
/// flag that ends the command line.
pub fn parse_flags<'a>(
    args: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter().skip(1).map(String::as_str);
    while let Some(flag) = it.next() {
        if valued.contains(&flag) {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            flags.push((flag, value));
        } else if switches.contains(&flag) {
            flags.push((flag, ""));
        } else {
            return Err(format!("unknown argument `{flag}`"));
        }
    }
    Ok(flags)
}

/// The value given for `flag` (`""` for a switch), `None` when absent.
pub fn value<'a>(flags: &[(&'a str, &'a str)], flag: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
}

/// The value given for `flag`, parsed; `None` when the flag is absent.
///
/// # Errors
///
/// A message naming the flag and the value that does not parse.
pub fn parsed<T: FromStr>(flags: &[(&str, &str)], flag: &str) -> Result<Option<T>, String> {
    value(flags, flag)
        .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {flag}")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(list.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn accepted_flags_pair_with_their_values() {
        // A value that looks like a flag is still the value.
        let a = args(&["--out", "--n", "--n", "3", "--go"]);
        let flags = parse_flags(&a, &["--out", "--n"], &["--go"]).unwrap();
        assert_eq!(value(&flags, "--out"), Some("--n"));
        assert_eq!(parsed::<u32>(&flags, "--n"), Ok(Some(3)));
        assert_eq!(value(&flags, "--go"), Some(""));
        assert_eq!(parsed::<u32>(&flags, "--absent"), Ok(None));
    }

    #[test]
    fn unknown_missing_and_unparsable_name_the_flag() {
        let err = parse_flags(&args(&["--nope"]), &["--n"], &[]).unwrap_err();
        assert!(err.contains("--nope"), "{err}");
        let err = parse_flags(&args(&["--n"]), &["--n"], &[]).unwrap_err();
        assert!(err.contains("--n needs a value"), "{err}");
        let a = args(&["--n", "two"]);
        let flags = parse_flags(&a, &["--n"], &[]).unwrap();
        let err = parsed::<u32>(&flags, "--n").unwrap_err();
        assert!(err.contains("--n") && err.contains("two"), "{err}");
    }
}
