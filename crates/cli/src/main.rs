//! `pgl` — the pangenome graph layout pipeline in one binary.
//!
//! The paper stresses that its GPU implementation "can be seamlessly
//! integrated into the ODGI framework … a user can simply add the
//! `--gpu` argument". This binary is that integration story for the Rust
//! reproduction: one tool covering the pipeline from graph to picture,
//! plus the multi-graph orchestration service.
//!
//! ```text
//! pgl gen      --preset chr1 --scale 0.001 -o g.gfa     # synthesize a pangenome
//! pgl stats    g.gfa                                    # Table I-style properties
//! pgl layout   g.gfa -o g.lay [--gpu | --batch N]       # PG-SGD layout
//! pgl stress   g.gfa g.lay [--exact]                    # sampled path stress (+CI)
//! pgl draw     g.gfa g.lay -o g.svg [--ppm]             # render
//! pgl tsv      g.lay -o g.tsv                           # export coordinates
//! pgl serve    [--port 7878]                            # HTTP layout service (/v1 API)
//! pgl batch    graphs/ -o layouts/ [--engine batch]     # lay out a directory
//! pgl submit   g.gfa --priority interactive --watch     # job via a running server
//! pgl watch    17                                       # stream a job's events
//! ```

mod args;
mod commands;

use args::ArgParser;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    let parser = ArgParser::new(argv);

    if parser.wants_help() {
        match commands::usage(&cmd) {
            Some(text) => println!("{text}"),
            None => print_usage(),
        }
        return;
    }
    if let Err(e) = parser.validate() {
        eprintln!("pgl {cmd}: {e}");
        if let Some(text) = commands::usage(&cmd) {
            eprintln!("\n{text}");
        }
        std::process::exit(2);
    }

    let result = match cmd.as_str() {
        "gen" => commands::gen(parser),
        "stats" => commands::stats(parser),
        "sort" => commands::sort(parser),
        "layout" => commands::layout(parser),
        "stress" => commands::stress(parser),
        "draw" => commands::draw_cmd(parser),
        "tsv" => commands::tsv(parser),
        "serve" => commands::serve(parser),
        "coordinator" => commands::coordinator(parser),
        "batch" => commands::batch_cmd(parser),
        "bench" => commands::bench(parser),
        "submit" => commands::submit(parser),
        "watch" => commands::watch(parser),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `pgl help`")),
    };
    if let Err(e) = result {
        eprintln!("pgl: {e}");
        std::process::exit(1);
    }
}

fn print_usage() {
    println!(
        "pgl — pangenome graph layout (Rust reproduction of SC'24 'Rapid GPU-Based \
         Pangenome Graph Layout')\n\n\
         USAGE: pgl <command> [args]   (pgl <command> --help for details)\n\n\
         COMMANDS:\n\
         \u{20}  gen     --preset <hla|mhc|chr1..chr22|chrX|chrY> [--scale F] [--seed N] -o <out.gfa>\n\
         \u{20}  stats   <in.gfa>\n\
         \u{20}  sort    <in.gfa> -o <out.gfa> [--iters N] [--seed N]   (1D path-SGD sort)\n\
         \u{20}  layout  <in.gfa> -o <out.lay> [--gpu] [--gpu-a100] [--batch <size>]\n\
         \u{20}          [--threads N] [--iters N] [--seed N] [--f32]\n\
         \u{20}  bench   [-o <out.json>] [--preset small|medium|large] [--threads N]\n\
         \u{20}          [--iters N] [--repeat N] [--quick] [--baseline UPS]\n\
         \u{20}          [--validate <bench.json>] [--guard <bench.json>] [--tolerance F]\n\
         \u{20}          (SGD throughput harness; --guard fails on >F regression)\n\
         \u{20}  stress  <in.gfa> <in.lay> [--exact] [--samples-per-node N] [--seed N]\n\
         \u{20}  draw    <in.gfa> <in.lay> -o <out.svg|out.ppm> [--width N] [--links]\n\
         \u{20}  tsv     <in.lay> -o <out.tsv>\n\
         \u{20}  serve   [--addr HOST] [--port N] [--workers N] [--cache N] [--graphs N]\n\
         \u{20}          [--cache-dir DIR] [--cache-max-bytes N] [--cache-ttl SECS]\n\
         \u{20}          [--preload-graphs DIR] [--graph-quota N]\n\
         \u{20}          [--max-conns N] [--keep-alive SECS] [--rate-limit N]\n\
         \u{20}          [--join COORD_ADDR] [--advertise HOST:PORT] [--heartbeat-ms N]\n\
         \u{20}          [--log-level L] [--log-json]\n\
         \u{20}          (HTTP /v1 API: POST /v1/graphs uploads once, POST /v1/jobs\n\
         \u{20}          lays out by reference with priority/client/ttl_ms scheduling,\n\
         \u{20}          GET /v1/jobs/<id>/events streams progress, /v1/jobs/<id>/trace\n\
         \u{20}          returns the phase timeline, /v1/metrics serves Prometheus text)\n\
         \u{20}  coordinator [--addr HOST] [--port N] [--heartbeat-ms N] [--max-conns N]\n\
         \u{20}          [--graph-quota N] [--log-level L] [--log-json]\n\
         \u{20}          (cluster front door: routes /v1 jobs across pgl serve --join\n\
         \u{20}          workers by consistent-hashing each job's graph; fleet-wide\n\
         \u{20}          fair scheduling, failover with requeue, /v1/stats rollup)\n\
         \u{20}  batch   <dir> -o <outdir> [--engine E[,E2...]] [--workers N] [--tsv]\n\
         \u{20}          [--resume] [--priority P] [--client KEY]\n\
         \u{20}          (each input parsed once across all engines)\n\
         \u{20}  submit  <in.gfa> [--addr HOST] [--port N] [--engine E] [--priority P]\n\
         \u{20}          [--client KEY] [--ttl-ms N] [--watch]   (POST /v1/jobs)\n\
         \u{20}  watch   <job-id> [--addr HOST] [--port N] [--from SEQ]\n\
         \u{20}          (stream GET /v1/jobs/<id>/events until terminal)\n"
    );
}
