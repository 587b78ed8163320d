//! The `netqos` command table: every subcommand with its positionals and
//! the options it acts on, the one parser over it, and the usage text
//! rendered from it — so what a command accepts and what `netqos help`
//! says it accepts are the same list.

use std::path::PathBuf;
use std::str::FromStr;

/// One option of a command, declared in usage notation — `--duration N`
/// takes a value, `--otlp` is a bare flag, a trailing `...` marks one
/// that may be repeated — and its help text (re-wrapped when rendered).
pub struct Opt(pub &'static str, pub &'static str);

impl Opt {
    /// The option as typed (`--duration`).
    pub fn name(&self) -> &'static str {
        self.0.split(' ').next().unwrap_or(self.0)
    }

    /// Placeholder of the value it takes (`N`); `None` for a bare flag.
    pub fn meta(&self) -> Option<&'static str> {
        let (_, meta) = self.0.split_once(' ')?;
        Some(meta.trim_end_matches("..."))
    }
}

/// One subcommand.
pub struct Cmd {
    /// One word (`monitor`) or two (`lts query`).
    pub name: &'static str,
    /// Positional synopsis (`<spec>`, `[PATH.jsonl]`, `<spec> <spec>...`);
    /// its word count bounds the positionals the parser accepts.
    pub args: &'static str,
    pub about: &'static str,
    pub opts: &'static [Opt],
    pub run: fn(&Args) -> Result<(), String>,
}

// Options more than one command acts on.
const DURATION: Opt = Opt("--duration N", "simulated seconds to run (default 30)");
const LOAD: Opt = Opt(
    "--load FROM:TO:KBPS[:START:END]...",
    "offer KBPS kB/s of UDP load from host FROM to host TO, for the whole run or only between \
     simulated seconds START and END",
);
const TELEMETRY: Opt = Opt(
    "--telemetry PATH",
    "also write PATH.prom (the registry at exit) and PATH.jsonl (the event trail)",
);
const PACE_MS: Opt = Opt("--pace-ms MS", "sleep MS wall-clock ms per tick");
const ALERT_RULES: Opt = Opt(
    "--alert-rules PATH",
    "load alert rules from PATH on top of the built-ins (same-name rules override); see \
     `netqos alerts`",
);
const BASELINE_STATE: Opt = Opt(
    "--baseline-state PATH",
    "restore baselines from PATH at start, save them back on exit",
);
const BASELINE_SAVE_TICKS: Opt = Opt(
    "--baseline-save-ticks N",
    "ticks between baseline saves and long-term store flushes (positive, default 60)",
);
const LTS: Opt = Opt(
    "--lts DIR",
    "keep a long-term stats store under DIR (one per shard, DIR/<shard>, under federate): \
     every tick samples the registry and per-path QoS signals at 1s resolution (downsampled \
     to 1m/1h); the export plane's /api/v1 queries read it",
);
const LTS_COMPACT: Opt = Opt(
    "--lts-compact",
    "compact the --lts store on every save tick (instead of only flushing), keeping read \
     amplification flat on long runs; queries see byte-identical results across it",
);
const RECORD_RULES: Opt = Opt(
    "--record-rules PATH",
    "evaluate recording rules from PATH against the --lts store on every save tick, \
     appending results as derived series (see `netqos record lint`)",
);
const RANGE: Opt = Opt(
    "--range START:END",
    "window in Unix seconds (either end may be empty)",
);
const LAST: Opt = Opt(
    "--last DUR",
    "the trailing window instead of --range (e.g. 90s, 15m, 2h, 1d, 1w)",
);

/// Every subcommand. The parser, `netqos help` and the usage printed
/// with an error all read this table and nothing else.
pub static COMMANDS: &[Cmd] = &[
    Cmd {
        name: "check",
        args: "<spec>",
        about: "validate a specification file",
        opts: &[],
        run: super::cmd_check,
    },
    Cmd {
        name: "fmt",
        args: "<spec>",
        about: "canonical pretty-print to stdout",
        opts: &[],
        run: super::cmd_fmt,
    },
    Cmd {
        name: "paths",
        args: "<spec>",
        about: "show qospath traversals",
        opts: &[],
        run: super::cmd_paths,
    },
    Cmd {
        name: "monitor",
        args: "<spec>",
        about: "run the monitor in the simulator; one CSV row of used/available kB/s per \
                qospath per simulated second on stdout",
        opts: &[
            DURATION,
            LOAD,
            TELEMETRY,
            Opt(
                "--serve ADDR",
                "serve GET /metrics /healthz /snapshot /alerts /profile and \
                 /api/v1/query[_range] on ADDR (bound address printed to stderr); turns \
                 tracing on so /profile has a tick-phase profile (?format=folded for \
                 flamegraph folded stacks)",
            ),
            PACE_MS,
            Opt(
                "--otlp-push URL",
                "push flight snapshots to an OTLP collector at http://host:port/path on \
                 violation and at exit (turns tracing on)",
            ),
            ALERT_RULES,
            Opt(
                "--alert-webhook URL",
                "POST alert transition batches (JSON) to http://host:port/path",
            ),
            BASELINE_STATE,
            BASELINE_SAVE_TICKS,
            LTS,
            LTS_COMPACT,
            RECORD_RULES,
            Opt(
                "--slow-query-ms MS",
                "flag /api/v1 evaluations slower than MS in response warnings (default 50)",
            ),
        ],
        run: super::cmd_monitor,
    },
    Cmd {
        name: "federate",
        args: "<spec> <spec>...",
        about: "run one monitoring shard per spec file (threads) behind one merged export \
                plane: /metrics carries shard=\"...\" labelled series plus unlabelled \
                aggregates; /healthz is 503 if any shard stalls; /profile takes ?shard=NAME",
        opts: &[
            DURATION,
            Opt(
                "--serve ADDR",
                "listen address of the merged plane (default 127.0.0.1:0; bound address \
                 printed to stderr)",
            ),
            PACE_MS,
            ALERT_RULES,
            BASELINE_SAVE_TICKS,
            LTS,
            LTS_COMPACT,
            RECORD_RULES,
        ],
        run: super::cmd_federate,
    },
    Cmd {
        name: "stats",
        args: "<spec>",
        about: "run the monitor quietly, print its own telemetry (Prometheus text)",
        opts: &[DURATION, LOAD, TELEMETRY],
        run: super::cmd_stats,
    },
    Cmd {
        name: "audit",
        args: "<spec>",
        about: "verify spec against forwarding evidence",
        opts: &[],
        run: super::cmd_audit,
    },
    Cmd {
        name: "trace",
        args: "<spec>",
        about: "run with causal tracing; last.jsonl holds the newest flight-recorder \
                snapshot, each QoS violation leaves a tagged flight-<seq>.jsonl (render either \
                with flight dump)",
        opts: &[
            DURATION,
            LOAD,
            TELEMETRY,
            Opt(
                "--out DIR",
                "directory the snapshots go to (default flight/)",
            ),
            ALERT_RULES,
            BASELINE_STATE,
            BASELINE_SAVE_TICKS,
            LTS,
            LTS_COMPACT,
            RECORD_RULES,
        ],
        run: super::cmd_trace,
    },
    Cmd {
        name: "flight dump",
        args: "PATH.jsonl",
        about: "convert a JSONL snapshot to Chrome trace_event JSON on stdout",
        opts: &[Opt("--otlp", "emit OTLP/JSON instead")],
        run: super::cmd_flight_dump,
    },
    Cmd {
        name: "flight show",
        args: "PATH.jsonl",
        about: "summarize a snapshot's cycles",
        opts: &[],
        run: super::cmd_flight_show,
    },
    Cmd {
        name: "flight check",
        args: "PATH",
        about: "validate a Chrome trace or OTLP/JSON export; nonzero exit on failure",
        opts: &[],
        run: super::cmd_flight_check,
    },
    Cmd {
        name: "alerts",
        args: "[<rules>]",
        about: "lint an alert rules file: parse and echo each rule in canonical form",
        opts: &[Opt("--builtin", "list the built-in alert rules instead")],
        run: super::cmd_alerts,
    },
    Cmd {
        name: "record lint",
        args: "<rules>",
        about: "lint a recording-rules file (record:/expr: stanzas; see specs/record.rules)",
        opts: &[],
        run: super::cmd_record_lint,
    },
    Cmd {
        name: "query",
        args: "'EXPR'",
        about: "evaluate a PromQL-subset expression offline against a store or online \
                against a monitor's /api/v1/query[_range]; supported: rate/increase/delta, \
                histogram_quantile, sum/avg/min/max/count by/without, scalar arithmetic and \
                comparisons",
        opts: &[
            Opt(
                "--lts DIR",
                "the long-term store to read (exactly one of this and --url)",
            ),
            Opt(
                "--url http://host:port",
                "the live monitor or federation plane to ask",
            ),
            Opt(
                "--time T",
                "instant evaluation time (Unix seconds; default: newest sample)",
            ),
            RANGE,
            LAST,
            Opt("--step DUR", "range step (default 1m)"),
            Opt(
                "--format json|prom|csv",
                "output shape: the /api/v1 response body (default), Prometheus text lines, \
                 or CSV rows",
            ),
        ],
        run: super::cmd_query,
    },
    Cmd {
        name: "lts info",
        args: "DIR",
        about: "summarize a long-term store (series, segments, points, bytes, per-resolution \
                breakdown)",
        opts: &[Opt("--segments", "also list every segment")],
        run: super::cmd_lts_info,
    },
    Cmd {
        name: "lts verify",
        args: "DIR",
        about: "check store invariants; nonzero exit and one line per issue on failure",
        opts: &[],
        run: super::cmd_lts_verify,
    },
    Cmd {
        name: "lts compact",
        args: "DIR",
        about: "rewrite each series into one segment per resolution (offline only)",
        opts: &[],
        run: super::cmd_lts_compact,
    },
    Cmd {
        name: "lts query",
        args: "DIR",
        about: "print a store's points as JSON, offline (a live monitor answers /api/v1)",
        opts: &[
            Opt("--series SEL", "series selector, * wildcards (default *)"),
            RANGE,
            LAST,
            Opt("--step 1s|1m|1h", "resolution to read (default 1s)"),
            Opt(
                "--format json|prom|csv",
                "output shape: the JSON document (default), Prometheus text lines, or CSV rows",
            ),
        ],
        run: super::cmd_lts_query,
    },
    Cmd {
        name: "profile",
        args: "[PATH.jsonl]",
        about: "tick-phase profile of every cycle in a flight-recorder snapshot (offline), or \
                with --url of the cycles in a live monitor's flight ring; the same cycles give \
                the same document",
        opts: &[
            Opt(
                "--url http://host:port",
                "fetch GET /profile from a live export plane",
            ),
            Opt(
                "--shard NAME",
                "the shard to profile (federations only, with --url)",
            ),
            Opt(
                "--format json|folded",
                "phase tree as JSON (default) or flamegraph-compatible folded stacks",
            ),
        ],
        run: super::cmd_profile,
    },
    Cmd {
        name: "gen-topology",
        args: "",
        about: "emit a synthetic core/site/access topology spec on stdout (10^3-10^5 hosts; \
                deterministic for fixed parameters)",
        opts: &[
            Opt("--hosts N", "hosts to generate (at least 1)"),
            Opt("--hosts-per-ap N", "hosts per access point (1..=249)"),
            Opt("--aps-per-site N", "access points per site (at least 1)"),
            Opt("--hub-every N", "every N-th access point is a shared hub"),
            Opt("--qos-paths N", "qospath declarations to emit"),
            Opt("--out FILE", "write the spec to FILE instead"),
        ],
        run: super::cmd_gen_topology,
    },
    Cmd {
        name: "bench check",
        args: "OLD.json NEW.json",
        about: "compare two netqos-bench/v1 result documents; nonzero exit when a metric \
                regresses (*_per_sec up is good, *_ns/*_bytes down is good)",
        opts: &[Opt(
            "--tolerance PCT",
            "allowed regression in percent (default 10)",
        )],
        run: super::cmd_bench_check,
    },
];

/// Appends `text` word-wrapped to 80 columns, every line indented by `indent`.
fn wrap(out: &mut String, text: &str, indent: usize) {
    // Past the margin, so the first word opens a line of its own.
    let mut column = usize::MAX;
    for word in text.split_whitespace() {
        if column.saturating_add(1 + word.len()) > 80 {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            column = indent;
        } else {
            out.push(' ');
            column += 1;
        }
        out.push_str(word);
        column += word.len();
    }
}

impl Cmd {
    /// This command's entry in `netqos help`.
    pub fn usage(&self) -> String {
        let mut out = format!("  netqos {}", self.name);
        if !self.args.is_empty() {
            out.push(' ');
            out.push_str(self.args);
        }
        wrap(&mut out, self.about, 6);
        for o in self.opts {
            out.push_str("\n    ");
            out.push_str(o.0);
            wrap(&mut out, o.1, 8);
        }
        out.push('\n');
        out
    }

    /// A usage error: the message, then this command's usage.
    pub fn fail(&self, msg: impl std::fmt::Display) -> String {
        format!("{msg}\nusage:\n{}", self.usage())
    }

    /// The most positionals the synopsis allows.
    fn max_positionals(&self) -> usize {
        if self.args.ends_with("...") {
            usize::MAX
        } else {
            self.args.split_whitespace().count()
        }
    }
}

/// Everything `netqos help` prints.
pub fn help() -> String {
    let mut out = String::from("usage: netqos <command> [arguments]\n\n");
    for cmd in COMMANDS {
        out.push_str(&cmd.usage());
    }
    out.push_str("\nExit codes: 0 success, 1 no command given, 2 any other failure.");
    out
}

/// Finds the command `argv` starts with — by its first two words
/// (`lts query`) or its first — and returns it with what follows.
pub fn lookup(argv: &[String]) -> Result<(&'static Cmd, &[String]), String> {
    let first = argv[0].as_str();
    let two_words = argv.get(1).map(|second| format!("{first} {second}"));
    if let Some(cmd) = (COMMANDS.iter()).find(|c| Some(c.name) == two_words.as_deref()) {
        return Ok((cmd, &argv[2..]));
    }
    if let Some(cmd) = COMMANDS.iter().find(|c| c.name == first) {
        return Ok((cmd, &argv[1..]));
    }
    // `lts`, `flight`, `record`, `bench`: named without a subcommand they have.
    let group = (COMMANDS.iter()).filter(|c| c.name.split(' ').next() == Some(first));
    let usage: String = group.map(Cmd::usage).collect();
    if usage.is_empty() {
        return Err(format!("unknown command `{first}` (see `netqos help`)"));
    }
    Err(match argv.get(1) {
        Some(sub) => format!("unknown {first} subcommand `{sub}`\nusage:\n{usage}"),
        None => format!("missing {first} subcommand\nusage:\n{usage}"),
    })
}

/// One command line, parsed against its command's declaration.
#[derive(Clone)]
pub struct Args {
    pub cmd: &'static Cmd,
    pub positionals: Vec<String>,
    /// `(option name, value)` in the order given; a bare flag's value is empty.
    given: Vec<(&'static str, String)>,
}

/// Parses what follows the command name. Positionals and options may
/// interleave; an option the command does not declare, a missing value,
/// a repeated non-repeatable option and a surplus positional are usage
/// errors carrying the command's usage.
pub fn parse(cmd: &'static Cmd, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cmd,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            if args.positionals.len() == cmd.max_positionals() {
                return Err(cmd.fail(format!("unexpected argument `{arg}`")));
            }
            args.positionals.push(arg.clone());
            continue;
        }
        let opt = (cmd.opts.iter().find(|o| o.name() == arg))
            .ok_or_else(|| cmd.fail(format!("unknown option `{arg}` for `{}`", cmd.name)))?;
        if !opt.0.ends_with("...") && args.given.iter().any(|(name, _)| *name == opt.name()) {
            return Err(cmd.fail(format!("{} given more than once", opt.name())));
        }
        let value = match opt.meta() {
            Some(meta) => (argv.next())
                .ok_or_else(|| cmd.fail(format!("{} needs {meta}", opt.name())))?
                .clone(),
            None => String::new(),
        };
        args.given.push((opt.name(), value));
    }
    Ok(args)
}

impl Args {
    /// Every value given for `name`, in order (`--load`).
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        debug_assert!(
            (COMMANDS.iter().flat_map(|c| c.opts)).any(|o| o.name() == name),
            "no command declares {name}"
        );
        (self.given.iter()).filter_map(move |(n, v)| (*n == name).then_some(v.as_str()))
    }

    /// Whether `name` was given (the way to read a bare flag).
    pub fn flag(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The value given for `name`, if it was.
    pub fn value<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).next()
    }

    /// The value given for `name`, as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// The value given for `name`, parsed; an unparsable one is an error
    /// naming the option and what it expects.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| self.bad(name, v)))
            .transpose()
    }

    /// The error for a `value` of `name` that is not what its metavar asks for.
    pub fn bad(&self, name: &str, value: &str) -> String {
        let meta = (self.cmd.opts.iter().find(|o| o.name() == name)).and_then(Opt::meta);
        format!(
            "bad {name} `{value}` (expected {})",
            meta.unwrap_or_default()
        )
    }

    /// The `i`-th positional, or a usage error naming it.
    pub fn pos(&self, i: usize) -> Result<&str, String> {
        self.positionals.get(i).map(String::as_str).ok_or_else(|| {
            let name = self.cmd.args.split_whitespace().nth(i).unwrap_or_default();
            self.cmd.fail(format!(
                "missing {} argument",
                name.trim_matches(['[', ']'])
            ))
        })
    }

    /// Replaces the value given for `name`, if one was (`federate`
    /// re-roots `--lts` per shard).
    pub fn replace(&mut self, name: &str, with: impl FnOnce(&str) -> String) {
        if let Some((_, value)) = self.given.iter_mut().find(|(n, _)| *n == name) {
            *value = with(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn command(name: &str) -> &'static Cmd {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    #[test]
    fn every_declared_option_round_trips_and_undeclared_ones_are_rejected() {
        let every: Vec<&str> = (COMMANDS.iter().flat_map(|c| c.opts))
            .map(Opt::name)
            .collect();
        for cmd in COMMANDS {
            for o in cmd.opts {
                // "7" reads back through every accessor the commands use.
                let words = [o.name(), "7"];
                let line = argv(&words[..1 + o.meta().is_some() as usize]);
                let args = parse(cmd, &line).unwrap_or_else(|e| panic!("{}: {e}", cmd.name));
                assert!(args.flag(o.name()), "{} {}", cmd.name, o.0);
                if o.meta().is_some() {
                    assert_eq!(args.value(o.name()), Some("7"), "{} {}", cmd.name, o.0);
                    assert_eq!(args.num::<u64>(o.name()), Ok(Some(7)));
                    assert_eq!(args.path(o.name()), Some(PathBuf::from("7")));
                    assert_eq!(args.all(o.name()).collect::<Vec<_>>(), ["7"]);
                }
                // Nothing else reads as given.
                for other in cmd.opts.iter().filter(|other| other.name() != o.name()) {
                    assert!(!args.flag(other.name()), "{} {}", cmd.name, other.0);
                }
            }
            // An option other commands declare and this one does not is
            // refused, with this command's usage and not the whole listing.
            let undeclared = |n: &&&str| cmd.opts.iter().all(|o| o.name() != **n);
            for name in every.iter().filter(undeclared).chain([&"--no-such-option"]) {
                let err = parse(cmd, &argv(&[name, "7"])).err().expect(name);
                assert!(err.contains(&format!("unknown option `{name}`")), "{err}");
                assert!(err.contains(&format!("netqos {}", cmd.name)), "{err}");
                assert!(err.lines().count() < help().lines().count() / 3, "{err}");
            }
        }
    }

    #[test]
    fn missing_values_bad_numbers_and_repeats_are_errors_naming_the_option() {
        let monitor = command("monitor");
        let err = parse(monitor, &argv(&["x.spec", "--duration"])).err();
        assert!(
            err.as_ref().unwrap().starts_with("--duration needs N\n"),
            "{err:?}"
        );

        let args = parse(monitor, &argv(&["--duration", "soon", "x.spec"])).unwrap();
        let err = args.num::<u64>("--duration").unwrap_err();
        assert_eq!(err, "bad --duration `soon` (expected N)");
        assert_eq!(args.pos(0), Ok("x.spec"));

        let loads = ["--load", "a:b:1", "x.spec", "--load", "c:d:2:3:4"];
        let args = parse(monitor, &argv(&loads)).unwrap();
        assert_eq!(
            args.all("--load").collect::<Vec<_>>(),
            ["a:b:1", "c:d:2:3:4"]
        );
        let err = parse(monitor, &argv(&["--load"])).err().unwrap();
        assert!(
            err.starts_with("--load needs FROM:TO:KBPS[:START:END]\n"),
            "{err}"
        );

        let twice = ["--duration", "1", "--duration", "2"];
        let err = parse(monitor, &argv(&twice)).err().unwrap();
        assert!(
            err.starts_with("--duration given more than once\n"),
            "{err}"
        );
        assert!(parse(monitor, &argv(&["--lts-compact", "--lts-compact"])).is_err());
    }

    #[test]
    fn positionals_interleave_and_are_bounded_by_the_synopsis() {
        let line = argv(&["--duration", "1", "a", "b", "c"]);
        assert_eq!(
            parse(command("federate"), &line).unwrap().positionals,
            ["a", "b", "c"]
        );
        let err = parse(command("check"), &argv(&["a", "b"])).err().unwrap();
        assert!(err.starts_with("unexpected argument `b`"), "{err}");
        let err = parse(command("gen-topology"), &argv(&["a"])).err().unwrap();
        assert!(err.starts_with("unexpected argument `a`"), "{err}");
        let args = parse(command("bench check"), &argv(&["old.json"])).unwrap();
        assert!(args
            .pos(1)
            .unwrap_err()
            .starts_with("missing NEW.json argument\n"));
        let args = parse(command("alerts"), &[]).unwrap();
        assert!(args
            .pos(0)
            .unwrap_err()
            .starts_with("missing <rules> argument\n"));
    }

    #[test]
    fn lookup_resolves_one_and_two_word_names() {
        let resolved = |words: &[&str]| {
            let line = argv(words);
            let (cmd, rest) = lookup(&line).unwrap();
            (cmd.name, rest.to_vec())
        };
        let (name, rest) = resolved(&["lts", "query", "d", "--last", "5m"]);
        assert_eq!((name, rest), ("lts query", argv(&["d", "--last", "5m"])));
        let (name, rest) = resolved(&["query", "up", "--lts", "d"]);
        assert_eq!((name, rest), ("query", argv(&["up", "--lts", "d"])));
        assert_eq!(
            resolved(&["alerts", "--builtin"]),
            ("alerts", argv(&["--builtin"]))
        );
        let err = lookup(&argv(&["lts", "--no-such-option"])).err().unwrap();
        assert!(
            err.starts_with("unknown lts subcommand `--no-such-option`\n"),
            "{err}"
        );
        assert!(
            err.contains("netqos lts compact") && !err.contains("netqos query"),
            "{err}"
        );
        let err = lookup(&argv(&["flight"])).err().unwrap();
        assert!(err.starts_with("missing flight subcommand\n"), "{err}");
        let err = lookup(&argv(&["frobnicate", "x"])).err().unwrap();
        assert!(err.starts_with("unknown command `frobnicate`"), "{err}");
    }

    #[test]
    fn help_names_every_declared_option_once_and_no_undeclared_one() {
        let full = help();
        for cmd in COMMANDS {
            assert_eq!(COMMANDS.iter().filter(|c| c.name == cmd.name).count(), 1);
            let usage = cmd.usage();
            assert!(full.contains(&usage), "help lacks {}", cmd.name);
            // Entries sit at four spaces; wrapped help is indented further.
            let entries: Vec<&str> = (usage.lines())
                .filter_map(|l| l.strip_prefix("    --"))
                .map(|l| l.split(' ').next().unwrap())
                .collect();
            let declared: Vec<&str> = cmd.opts.iter().map(|o| &o.name()[2..]).collect();
            assert_eq!(entries, declared, "{}", cmd.name);
            // The prose may cross-reference only options this command accepts.
            let tokens = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            for token in tokens.filter(|t| t.starts_with("--") && t.len() > 2) {
                assert!(
                    cmd.opts.iter().any(|o| o.name() == token),
                    "`{}` help mentions {token}, which it does not accept",
                    cmd.name
                );
            }
            assert!(usage.lines().all(|l| l.len() <= 80), "{usage}");
        }
    }
}
