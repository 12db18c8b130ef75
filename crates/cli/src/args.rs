//! A minimal argument parser (positional args + `--flag [value]` pairs),
//! kept dependency-free on purpose.
//!
//! Flags are validated against a whitelist: boolean flags never consume
//! a value, value flags always require one, and anything unrecognized is
//! an error instead of silently swallowing the next argument (the classic
//! `--typo input.gfa` foot-gun).

use std::collections::HashMap;

/// Parsed command-line arguments for one subcommand.
pub struct ArgParser {
    positional: Vec<String>,
    flags: HashMap<String, Option<String>>,
    unknown: Vec<String>,
    missing_value: Vec<String>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "--gpu",
    "--gpu-a100",
    "--exact",
    "--links",
    "--ppm",
    "--f32",
    "--tsv",
    "--resume",
    "--watch",
    "--quick",
    "--ab",
    "--log-json",
    "--help",
    "-h",
];

/// Flags that require a value.
const VALUE_FLAGS: &[&str] = &[
    "-o",
    "--preset",
    "--scale",
    "--seed",
    "--iters",
    "--threads",
    "--batch",
    "--samples-per-node",
    "--width",
    "--engine",
    "--addr",
    "--port",
    "--workers",
    "--cache",
    "--cache-dir",
    "--cache-max-bytes",
    "--graphs",
    "--max-conns",
    "--keep-alive",
    "--rate-limit",
    "--timeout",
    "--priority",
    "--client",
    "--ttl-ms",
    "--preload-graphs",
    "--from",
    "--threads-sweep",
    "--baseline",
    "--repeat",
    "--validate",
    "--log-level",
    "--guard",
    "--tolerance",
    "--join",
    "--advertise",
    "--cache-ttl",
    "--graph-quota",
    "--heartbeat-ms",
    "--journal-dir",
    "--vault-max-bytes",
];

impl ArgParser {
    /// Split argv into positionals and flags.
    pub fn new(argv: Vec<String>) -> Self {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut unknown = Vec::new();
        let mut missing_value = Vec::new();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            let key = a.as_str();
            if BOOL_FLAGS.contains(&key) {
                flags.insert(a, None);
            } else if VALUE_FLAGS.contains(&key) {
                // Refuse to eat a following flag as this flag's value.
                let next_is_value = it
                    .peek()
                    .is_some_and(|n| !n.starts_with("--") && *n != "-h" && *n != "-o");
                if next_is_value {
                    let v = it.next();
                    flags.insert(a, v);
                } else {
                    missing_value.push(a);
                }
            } else if key.starts_with('-') && key.len() > 1 && !key.as_bytes()[1].is_ascii_digit() {
                unknown.push(a);
            } else {
                positional.push(a);
            }
        }
        Self {
            positional,
            flags,
            unknown,
            missing_value,
        }
    }

    /// Error on unknown flags or value flags missing their value. Call
    /// this before reading any argument.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(flag) = self.unknown.first() {
            return Err(format!("unknown flag {flag:?} (see --help)"));
        }
        if let Some(flag) = self.missing_value.first() {
            return Err(format!("flag {flag} requires a value"));
        }
        Ok(())
    }

    /// True when the user asked for help (`--help` / `-h`).
    pub fn wants_help(&self) -> bool {
        self.has("--help") || self.has("-h")
    }

    /// Positional argument `i`, or an error naming it.
    pub fn pos(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing <{name}> argument"))
    }

    /// True when a boolean flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// A flag's string value.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).and_then(|v| v.as_deref())
    }

    /// A flag parsed to `T`, with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
        }
    }

    /// The required `-o` output path.
    pub fn out(&self) -> Result<&str, String> {
        self.value("-o")
            .ok_or_else(|| "missing -o <output>".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> ArgParser {
        ArgParser::new(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn positionals_and_flags_separate() {
        let p = parse("a.gfa b.lay --exact --samples-per-node 50 -o out.svg");
        p.validate().unwrap();
        assert_eq!(p.pos(0, "gfa").unwrap(), "a.gfa");
        assert_eq!(p.pos(1, "lay").unwrap(), "b.lay");
        assert!(p.has("--exact"));
        assert_eq!(p.parse_or("--samples-per-node", 100u32).unwrap(), 50);
        assert_eq!(p.out().unwrap(), "out.svg");
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let p = parse("x.gfa");
        p.validate().unwrap();
        assert_eq!(p.parse_or("--iters", 30u32).unwrap(), 30);
        assert!(!p.has("--gpu"));
        assert!(p.out().is_err());
    }

    #[test]
    fn bool_flags_consume_no_value() {
        let p = parse("--gpu file.gfa");
        p.validate().unwrap();
        assert!(p.has("--gpu"));
        assert_eq!(p.pos(0, "gfa").unwrap(), "file.gfa");
    }

    #[test]
    fn cluster_flags_parse() {
        let p = parse("--join 127.0.0.1:7979 --advertise 10.0.0.2:7878 --heartbeat-ms 500 --cache-ttl 3600 --graph-quota 2");
        p.validate().unwrap();
        assert_eq!(p.value("--join").unwrap(), "127.0.0.1:7979");
        assert_eq!(p.value("--advertise").unwrap(), "10.0.0.2:7878");
        assert_eq!(p.parse_or("--heartbeat-ms", 2000u64).unwrap(), 500);
        assert_eq!(p.parse_or("--cache-ttl", 0u64).unwrap(), 3600);
        assert_eq!(p.parse_or("--graph-quota", 0usize).unwrap(), 2);
    }

    #[test]
    fn journal_flags_parse() {
        let p = parse("--journal-dir /var/lib/pgl/journal --vault-max-bytes 1048576");
        p.validate().unwrap();
        assert_eq!(p.value("--journal-dir").unwrap(), "/var/lib/pgl/journal");
        assert_eq!(p.parse_or("--vault-max-bytes", 0u64).unwrap(), 1_048_576);
    }

    #[test]
    fn bad_numeric_value_is_an_error() {
        let p = parse("--iters banana");
        assert!(p.parse_or("--iters", 1u32).is_err());
    }

    #[test]
    fn missing_positional_is_an_error() {
        let p = parse("");
        assert!(p.pos(0, "gfa").is_err());
    }

    #[test]
    fn unknown_flag_does_not_swallow_the_next_argument() {
        // The seed bug: `--typo file.gfa` consumed file.gfa as the flag's
        // value, so the command then complained about a missing input.
        let p = parse("--typo file.gfa");
        assert_eq!(p.pos(0, "gfa").unwrap(), "file.gfa");
        let err = p.validate().unwrap_err();
        assert!(err.contains("--typo"), "{err}");
    }

    #[test]
    fn value_flag_without_value_is_an_error() {
        let p = parse("file.gfa --iters");
        let err = p.validate().unwrap_err();
        assert!(err.contains("--iters"), "{err}");
        // A following flag is not a value either.
        let p = parse("--iters --gpu file.gfa");
        assert!(p.validate().is_err());
        assert!(p.has("--gpu"));
        assert_eq!(p.pos(0, "gfa").unwrap(), "file.gfa");
    }

    #[test]
    fn help_flags_are_recognized() {
        assert!(parse("--help").wants_help());
        assert!(parse("x.gfa -h").wants_help());
        assert!(!parse("x.gfa").wants_help());
        parse("--help").validate().unwrap();
    }

    #[test]
    fn serve_hardening_flags_parse() {
        let p = parse("--max-conns 8 --keep-alive 2 --cache-dir /tmp/layouts --resume");
        p.validate().unwrap();
        assert_eq!(p.parse_or("--max-conns", 64usize).unwrap(), 8);
        assert_eq!(p.parse_or("--keep-alive", 5u64).unwrap(), 2);
        assert_eq!(p.value("--cache-dir").unwrap(), "/tmp/layouts");
        assert!(p.has("--resume"));
    }

    #[test]
    fn graph_store_and_rate_limit_flags_parse() {
        let p = parse("--rate-limit 10.5 --cache-max-bytes 1000000 --graphs 4 --engine cpu,gpu");
        p.validate().unwrap();
        assert_eq!(p.parse_or("--rate-limit", 0.0f64).unwrap(), 10.5);
        assert_eq!(p.parse_or("--cache-max-bytes", 0u64).unwrap(), 1_000_000);
        assert_eq!(p.parse_or("--graphs", 16usize).unwrap(), 4);
        assert_eq!(p.value("--engine").unwrap(), "cpu,gpu");
    }

    #[test]
    fn scheduling_and_watch_flags_parse() {
        let p = parse("--priority interactive --client alice --ttl-ms 2000 --watch --from 3");
        p.validate().unwrap();
        assert_eq!(p.value("--priority").unwrap(), "interactive");
        assert_eq!(p.value("--client").unwrap(), "alice");
        assert_eq!(p.parse_or("--ttl-ms", 0u64).unwrap(), 2000);
        assert_eq!(p.parse_or("--from", 0u64).unwrap(), 3);
        assert!(p.has("--watch"));
        let p = parse("--preload-graphs /var/graphs");
        p.validate().unwrap();
        assert_eq!(p.value("--preload-graphs").unwrap(), "/var/graphs");
    }

    #[test]
    fn hot_path_and_bench_flags_parse() {
        let p = parse("--f32 --quick --baseline 8.2e6 --repeat 3");
        p.validate().unwrap();
        assert!(p.has("--f32"));
        assert!(p.has("--quick"));
        assert_eq!(p.parse_or("--baseline", 0.0f64).unwrap(), 8.2e6);
        assert_eq!(p.parse_or("--repeat", 1usize).unwrap(), 3);
    }

    #[test]
    fn simd_and_sharding_flags_parse() {
        let p = parse("--threads-sweep 1,2,4 --ab");
        p.validate().unwrap();
        assert_eq!(p.value("--threads-sweep").unwrap(), "1,2,4");
        assert!(p.has("--ab"));
    }

    #[test]
    fn observability_flags_parse() {
        let p = parse("--log-level debug --log-json --guard BENCH.json --tolerance 0.02");
        p.validate().unwrap();
        assert_eq!(p.value("--log-level").unwrap(), "debug");
        assert!(p.has("--log-json"));
        assert_eq!(p.value("--guard").unwrap(), "BENCH.json");
        assert_eq!(p.parse_or("--tolerance", 0.0f64).unwrap(), 0.02);
    }

    #[test]
    fn negative_numbers_are_positionals_not_flags() {
        let p = parse("-3.5 x.gfa");
        p.validate().unwrap();
        assert_eq!(p.pos(0, "num").unwrap(), "-3.5");
        assert_eq!(p.pos(1, "gfa").unwrap(), "x.gfa");
    }
}
