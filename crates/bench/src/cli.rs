//! The `experiments` command line as data: a table of [`Command`] rows
//! (names, positionals, the flags the command accepts, its handler)
//! from which [`parse`] derives the parsing, the per-command flag
//! rejection and the [`usage`] text. The table itself sits next to the
//! handlers it names, in `src/bin/experiments.rs`.

use fedl_serve::cli::flag_value;

/// A flag: its spelling and, when it takes a value, the value's name in
/// the usage text. One spelling means one thing on every command.
#[derive(Debug)]
pub struct Flag {
    /// The spelling, e.g. `--out`.
    pub name: &'static str,
    /// `Some(metavar)` when the flag takes a value.
    pub value: Option<&'static str>,
}

/// One row of the command table.
pub struct Command {
    /// The command's spellings; a two-word name (`bench-history gate`)
    /// is matched over two arguments.
    pub names: &'static [&'static str],
    /// The positional arguments as the usage text spells them: a name
    /// in `[brackets]` is optional, and one ending in `...]` may repeat.
    pub positionals: &'static [&'static str],
    /// The flags the command accepts; `None` when it parses its own
    /// arguments (it must then come first, and receives the rest of the
    /// line verbatim as [`Args::positionals`]).
    pub flags: Option<&'static [&'static Flag]>,
    /// Parenthetical shown after the synopsis.
    pub note: &'static str,
    /// The handler; an `Err` is printed and fails the process.
    pub run: fn(&Args) -> Result<(), String>,
}

/// What [`parse`] read off the command line for one command.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// The flags given, in order, each with its value if it takes one.
    pub flags: Vec<(&'static str, Option<String>)>,
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag.name)
    }

    /// Every value given for `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a Flag) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter(|(name, _)| *name == flag.name).filter_map(|(_, v)| v.as_deref())
    }

    /// The value of `flag`; the last one wins when it was repeated.
    pub fn value<'a>(&'a self, flag: &'a Flag) -> Option<&'a str> {
        self.values(flag).last()
    }
}

impl Command {
    /// Everything the usage line shows after the name.
    fn synopsis(&self) -> String {
        let mut parts: Vec<String> = self.positionals.iter().map(|p| p.to_string()).collect();
        match self.flags {
            None => parts.push("[options]".to_string()),
            Some(flags) => parts.extend(flags.iter().map(|f| match f.value {
                Some(metavar) => format!("[{} {metavar}]", f.name),
                None => format!("[{}]", f.name),
            })),
        }
        if !self.note.is_empty() {
            parts.push(format!("({})", self.note));
        }
        parts.join(" ")
    }
}

/// The usage text: one line per command, adjacent commands that share a
/// synopsis folded into one `<a|b|c>` line.
pub fn usage(table: &[Command]) -> String {
    let mut lines: Vec<(Vec<&str>, String)> = Vec::new();
    for command in table {
        let synopsis = command.synopsis();
        match lines.last_mut() {
            Some((names, shared)) if *shared == synopsis => names.extend(command.names),
            _ => lines.push((command.names.to_vec(), synopsis)),
        }
    }
    let mut out = String::new();
    for (i, (names, synopsis)) in lines.iter().enumerate() {
        let names = match names.as_slice() {
            [only] => only.to_string(),
            many => format!("<{}>", many.join("|")),
        };
        out.push_str(if i == 0 { "usage: " } else { "\n       " });
        out.push_str(format!("experiments {names} {synopsis}").trim_end());
    }
    out
}

/// Parses the argument list (without the program name) against `table`:
/// which command it names, and the flags and positionals given to it.
/// Flags may come before or after the command. A flag no command knows,
/// a flag the named command does not list, a missing value or a
/// positional too few or too many is an error.
pub fn parse<'t>(table: &'t [Command], args: &[String]) -> Result<(&'t Command, Args), String> {
    let find = |name: &str| table.iter().find(|c| c.names.contains(&name));
    if let Some(command) = args.first().and_then(|a| find(a)).filter(|c| c.flags.is_none()) {
        return Ok((command, Args { flags: Vec::new(), positionals: args[1..].to_vec() }));
    }
    let mut parsed = Args::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let flag = table
            .iter()
            .filter_map(|c| c.flags)
            .flatten()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag {arg}\n\n{}", usage(table)))?;
        let value = match flag.value {
            Some(_) => Some(flag_value(flag.name, &mut rest)?.clone()),
            None => None,
        };
        parsed.flags.push((flag.name, value));
    }
    if parsed.positionals.is_empty() {
        return Err(usage(table));
    }
    let mut name = parsed.positionals.remove(0);
    let actions: Vec<&str> = table
        .iter()
        .flat_map(|c| c.names)
        .filter_map(|n| n.strip_prefix(name.as_str())?.strip_prefix(' '))
        .collect();
    if !actions.is_empty() {
        if parsed.positionals.is_empty() {
            return Err(format!("{name} requires an action: {}", actions.join(", ")));
        }
        name = format!("{name} {}", parsed.positionals.remove(0));
    }
    let command =
        find(&name).ok_or_else(|| format!("unknown command: {name}\n\n{}", usage(table)))?;
    let Some(accepted) = command.flags else {
        return Err(format!("{name} parses its own options and must come first"));
    };
    if let Some((stray, _)) =
        parsed.flags.iter().find(|(f, _)| accepted.iter().all(|a| a.name != *f))
    {
        let own = usage(std::slice::from_ref(command));
        return Err(format!("{stray} is not an option of {name}\n\n{own}"));
    }
    let required = command.positionals.iter().filter(|p| !p.starts_with('[')).count();
    let repeats = command.positionals.last().is_some_and(|p| p.ends_with("...]"));
    if parsed.positionals.len() < required {
        return Err(format!("{name} requires {}", command.positionals[parsed.positionals.len()]));
    }
    if parsed.positionals.len() > command.positionals.len() && !repeats {
        let extra = &parsed.positionals[command.positionals.len()];
        return Err(format!("unexpected argument: {extra}"));
    }
    Ok((command, parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Flag = Flag { name: "--quick", value: None };
    const OUT: Flag = Flag { name: "--out", value: Some("DIR") };
    const HTML: Flag = Flag { name: "--html", value: Some("FILE.html") };

    const FIGURE: Option<&[&Flag]> = Some(&[&QUICK, &OUT]);
    const PAGE: Option<&[&Flag]> = Some(&[&HTML]);
    const PLAIN: Option<&[&Flag]> = Some(&[]);

    fn ok(_: &Args) -> Result<(), String> {
        Ok(())
    }

    fn table() -> Vec<Command> {
        let row =
            |names, positionals, flags, note| Command { names, positionals, flags, note, run: ok };
        vec![
            row(&["fig2", "fig4"], &[], FIGURE, ""),
            row(&["fig6"], &[], FIGURE, ""),
            row(&["report"], &["FILE"], PLAIN, ""),
            row(&["history gate"], &["NEW.json"], PLAIN, ""),
            row(&["history report"], &[], PAGE, ""),
            row(&["dashboard"], &["RUN.jsonl", "[RUN2.jsonl ...]"], PAGE, "one or more"),
            row(&["serve"], &[], None, "see docs/SERVE.md"),
        ]
    }

    fn parse_ok(line: &[&str]) -> (&'static str, Args) {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let table = table();
        let (command, args) = parse(&table, &args).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        (command.names[0], args)
    }

    fn parse_err(line: &[&str]) -> String {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        match parse(&table(), &args) {
            Ok((command, _)) => panic!("{line:?} parsed as {}", command.names[0]),
            Err(e) => e,
        }
    }

    #[test]
    fn usage_is_derived_from_the_table() {
        assert_eq!(
            usage(&table()),
            "usage: experiments <fig2|fig4|fig6> [--quick] [--out DIR]\n       \
             experiments report FILE\n       \
             experiments history gate NEW.json\n       \
             experiments history report [--html FILE.html]\n       \
             experiments dashboard RUN.jsonl [RUN2.jsonl ...] [--html FILE.html] (one or more)\n       \
             experiments serve [options] (see docs/SERVE.md)"
        );
    }

    #[test]
    fn flags_and_positionals_land_in_args_in_any_order() {
        let (name, args) = parse_ok(&["--quick", "--out", "/tmp/x", "fig4"]);
        assert_eq!(name, "fig2", "aliases share a row");
        assert!(args.has(&QUICK) && !args.has(&HTML));
        assert_eq!(args.value(&OUT), Some("/tmp/x"));
        let (_, args) = parse_ok(&["fig6", "--out", "a", "--out", "b"]);
        assert_eq!(args.values(&OUT).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!((args.value(&OUT), args.has(&QUICK)), (Some("b"), false));
        let (name, args) = parse_ok(&["dashboard", "a.jsonl", "--html", "o.html", "b.jsonl"]);
        assert_eq!((name, args.positionals.len()), ("dashboard", 2));
        let (name, args) = parse_ok(&["history", "gate", "NEW.json"]);
        assert_eq!((name, args.positionals), ("history gate", vec!["NEW.json".to_string()]));
    }

    #[test]
    fn a_command_with_its_own_grammar_gets_the_line_verbatim() {
        let (name, args) = parse_ok(&["serve", "--addr", "x", "--html", "stray"]);
        assert_eq!(name, "serve");
        assert_eq!(args.positionals, ["--addr", "x", "--html", "stray"]);
        assert!(args.flags.is_empty());
        assert!(parse_err(&["--quick", "serve"]).contains("must come first"));
    }

    #[test]
    fn bad_lines_are_descriptive_errors() {
        assert!(parse_err(&[]).starts_with("usage: experiments"));
        assert!(parse_err(&["--quick"]).starts_with("usage: experiments"));
        assert!(parse_err(&["frobnicate"]).contains("unknown command: frobnicate"));
        assert!(parse_err(&["fig2", "--bogus"]).contains("unknown flag --bogus"));
        assert!(parse_err(&["fig2", "--out"]).contains("--out needs a value"));
        assert!(parse_err(&["fig2", "fig6"]).contains("unexpected argument: fig6"));
        assert!(parse_err(&["report"]).contains("report requires FILE"));
        assert!(parse_err(&["report", "a", "b"]).contains("unexpected argument: b"));
        assert!(parse_err(&["dashboard"]).contains("dashboard requires RUN.jsonl"));
        assert!(parse_err(&["history"]).contains("history requires an action: gate, report"));
        assert!(parse_err(&["history", "frobnicate"]).contains("unknown command: history frob"));
        assert!(parse_err(&["history", "gate"]).contains("history gate requires NEW.json"));
        let stray = parse_err(&["history", "gate", "a.json", "--html", "x.html"]);
        assert!(stray.contains("--html is not an option of history gate"), "{stray}");
        assert!(stray.ends_with("usage: experiments history gate NEW.json"), "{stray}");
    }
}
