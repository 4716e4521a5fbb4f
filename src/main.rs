//! `reese` — command-line front end for the simulators.
//!
//! Every subcommand's flags are rows of one table, [`FLAGS`]: the
//! parser reads it to accept and check arguments, and
//! `reese <command> --help` prints its usage from the same rows.

use reese::ckpt::Scheme;
use reese::core::{
    DetectionEvent, DuplexFaults, DuplexSim, InjectedFault, ReeseConfig, ReeseFaults, ReeseSim,
};
use reese::cpu::Emulator;
use reese::faults::schemes::EvalOptions;
use reese::faults::{FaultMix, SchemesReport, TrialRef};
use reese::isa::{IsaId, Program};
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::trace::{MetricsSeries, NoopObserver, TraceRing, Tracer};
use reese::workloads::rv32::Rv32Kernel;
use reese::workloads::{measure_mix, Kernel};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        if name == "--help" {
            print!("{}", overview());
            return ExitCode::SUCCESS;
        }
        if !name.is_empty() {
            eprintln!("error: unknown command `{name}`\n");
        }
        eprint!("{}", overview());
        return ExitCode::FAILURE;
    };
    let result = parse(command.cmd, &args[1..]).and_then(|o| {
        if o.help {
            print!("{}", help(command.cmd));
            Ok(())
        } else {
            (command.exec)(o)
        }
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

type CliError = Box<dyn std::error::Error>;

/// A subcommand, as its bit in a [`Flag::cmds`] mask.
type Cmd = u16;
const RUN: Cmd = 1;
const CAMPAIGN: Cmd = 1 << 1;
const SCHEMES: Cmd = 1 << 2;
const EXPLAIN: Cmd = 1 << 3;
const ASM: Cmd = 1 << 4;
const MIX: Cmd = 1 << 5;
const DISASM: Cmd = 1 << 6;
const TRACE: Cmd = 1 << 7;
const KERNELS: Cmd = 1 << 8;
/// The commands that simulate one program on a configurable machine.
const SIM: Cmd = RUN | CAMPAIGN | EXPLAIN;

/// One subcommand: its name, its positional argument (empty when it
/// takes none), a summary for `--help`, and its entry point.
struct Command {
    cmd: Cmd,
    name: &'static str,
    arg: &'static str,
    about: &'static str,
    exec: fn(Opts) -> Result<(), CliError>,
}

#[rustfmt::skip]
const COMMANDS: [Command; 9] = [
    Command { cmd: RUN, name: "run", arg: "[file.s|file.bin]", exec: cmd_run,
        about: "simulate a program file or --kernel on one machine model\n\
                (--scheme defaults to baseline; `emulate` runs the functional core alone)" },
    Command { cmd: CAMPAIGN, name: "campaign", arg: "[file.s|file.bin]", exec: cmd_campaign,
        about: "run a fault-injection campaign (default --kernel lisp, --scheme reese)" },
    Command { cmd: SCHEMES, name: "schemes", arg: "", exec: cmd_schemes,
        about: "rank every detection scheme on the selected ISA's kernel catalogue" },
    Command { cmd: EXPLAIN, name: "explain", arg: "[file.s|file.bin]", exec: cmd_explain,
        about: "forensically replay one logged campaign trial\n\
                (repeat the campaign's workload, scheme and machine flags; default --kernel lisp, --scheme reese)" },
    Command { cmd: ASM, name: "asm", arg: "<file.s>", exec: cmd_asm,
        about: "assemble a program to a flat binary (needs -o)" },
    Command { cmd: MIX, name: "mix", arg: "<file|kernel>", exec: cmd_mix,
        about: "print a program's dynamic instruction mix" },
    Command { cmd: DISASM, name: "disasm", arg: "<file|kernel>", exec: cmd_disasm,
        about: "assemble and disassemble a program" },
    Command { cmd: TRACE, name: "trace", arg: "<file|kernel>", exec: cmd_trace,
        about: "capture and profile a functional trace" },
    Command { cmd: KERNELS, name: "kernels", arg: "", exec: cmd_kernels,
        about: "list the built-in workload kernels" },
];

fn command(cmd: Cmd) -> &'static Command {
    COMMANDS.iter().find(|c| c.cmd == cmd).expect("listed")
}

/// A flag: its names (aliases share a row), its value placeholder
/// (empty for a switch), the commands that accept it, its help line,
/// and the setter that checks the value and stores it. The setter gets
/// the name as typed, so errors quote what the user wrote.
struct Flag {
    names: &'static [&'static str],
    arg: &'static str,
    cmds: Cmd,
    help: &'static str,
    set: Setter,
}

type Setter = fn(&mut Opts, &str, &str) -> Result<(), CliError>;

#[rustfmt::skip]
const fn flag(names: &'static [&'static str], arg: &'static str, cmds: Cmd, help: &'static str, set: Setter) -> Flag {
    Flag { names, arg, cmds, help, set }
}

/// The commands that take machine-geometry flags.
const MACHINE: Cmd = SIM | SCHEMES;
/// The commands that can write a metrics series.
const METRICS: Cmd = RUN | CAMPAIGN | SCHEMES;
/// The commands with REESE spare units.
const SPARES: Cmd = RUN | CAMPAIGN | EXPLAIN;
/// The commands that run fault campaigns.
const FAULTS: Cmd = CAMPAIGN | SCHEMES;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag(&["--kernel"], "NAME", MACHINE, "built-in kernel instead of a file (schemes: repeatable, default all)", |o, _, v| { o.kernels.push(v.into()); Ok(()) }),
    flag(&["--scale"], "N", MACHINE, "kernel scale (default 1; rv32i at most 2147483647)", |o, f, v| { o.scale = positive(f, v)?; Ok(()) }),
    flag(&["--isa"], "NAME", MACHINE | ASM | MIX | DISASM | TRACE, "ISA frontend and kernel catalogue, ISAS", |o, _, v| { o.isa = parse_isa(v)?; Ok(()) }),
    flag(&["--target"], "N", SCHEMES, "calibrate each native kernel to at least N instructions", |o, f, v| { o.target = Some(positive(f, v)?); Ok(()) }),
    flag(&["--scheme"], "NAME", SIM, "SCHEMES, or a unique prefix", |o, _, v| { o.scheme = parse_scheme(o.cmd, v)?; Ok(()) }),
    flag(&["--machine"], "NAME", MACHINE, "base machine, starting|ruu32|wide16|ports4", |o, _, v| { o.base = machine(v)?; Ok(()) }),
    flag(&["--ruu-size"], "N", MACHINE, "override the RUU window size", |o, f, v| { o.base.ruu_size = positive(f, v)?; Ok(()) }),
    flag(&["--lsq-size"], "N", MACHINE, "override the LSQ size (at most the RUU size)", |o, f, v| { o.base.lsq_size = positive(f, v)?; Ok(()) }),
    flag(&["--width"], "N", MACHINE, "override the fetch/issue width (duplex: at least 2)", |o, f, v| { o.base.width = positive(f, v)?; Ok(()) }),
    flag(&["--spare-alus"], "N", SPARES, "extra integer ALUs (at most RUU + R-queue size)", |o, f, v| { o.spare_alus = number(f, v)?; Ok(()) }),
    flag(&["--spare-muls"], "N", SPARES, "extra integer multiplier/dividers (same bound)", |o, f, v| { o.spare_muls = number(f, v)?; Ok(()) }),
    flag(&["--rqueue"], "N", RUN, "R-stream Queue size (default 32)", |o, f, v| { o.rqueue = positive(f, v)?; Ok(()) }),
    flag(&["--early-removal"], "", RUN, "enable the §4.3 RUU-removal optimisation", |o, _, _| { o.early_removal = true; Ok(()) }),
    flag(&["--dup-period"], "K", RUN, "re-execute 1 in K instructions (default 1)", |o, f, v| { o.dup_period = positive(f, v)?; Ok(()) }),
    flag(&["--inject"], "SEQ:BIT:S", RUN, "fault at global seq SEQ, S = p|r|perm (repeatable)", |o, _, v| { o.faults.push(parse_fault(v)?); Ok(()) }),
    flag(&["--max-insns"], "N", RUN | FAULTS, "committed-instruction budget per run or trial (run: default 10000000)", |o, f, v| { o.eval.max_instructions = number(f, v)?; Ok(()) }),
    flag(&["--skip"], "N", RUN, "fast-forward N instructions functionally first", |o, f, v| { o.skip = number(f, v)?; Ok(()) }),
    flag(&["--stats"], "", RUN, "print the full statistics block", |o, _, _| { o.verbose = true; Ok(()) }),
    flag(&["--trials"], "N", FAULTS, "injection trials (default 200; schemes: 100 per cell)", |o, f, v| { o.eval.trials = positive(f, v)?; Ok(()) }),
    flag(&["--injections"], "N", CAMPAIGN, "alias for --trials", |o, f, v| { o.eval.trials = positive(f, v)?; Ok(()) }),
    flag(&["--seed"], "S", FAULTS, "campaign PRNG seed (default 1024023)", |o, f, v| { o.eval.seed = number(f, v)?; Ok(()) }),
    flag(&["--mix"], "NAME", FAULTS, "fault-class mix, broad|result (default broad; schemes: result)", |o, _, v| { o.mix = parse_mix(v)?; Ok(()) }),
    flag(&["-j", "--jobs"], "N", FAULTS, "worker threads (default all cores; schemes: 1)", |o, f, v| { o.eval.jobs = positive(f, v)?; Ok(()) }),
    flag(&["--engine"], "NAME", FAULTS, "trial engine, replay|full (full is the oracle)", |o, _, v| { o.eval.engine = v.parse()?; Ok(()) }),
    flag(&["--ckpt-every"], "K", CAMPAIGN, "checkpoint interval in instructions (default 2048)", |o, f, v| { o.ckpt_every = positive(f, v)?; Ok(()) }),
    flag(&["--outcomes-jsonl"], "FILE", CAMPAIGN, "stream per-trial outcomes to a campaign log", |o, f, v| { o.outcomes_jsonl = Some(path(f, v)?); Ok(()) }),
    flag(&["--resume"], "FILE", CAMPAIGN, "resume an interrupted campaign from its log", |o, f, v| { o.resume = Some(path(f, v)?); Ok(()) }),
    flag(&["--trial-limit"], "N", CAMPAIGN, "compute at most N new trials", |o, f, v| { o.trial_limit = Some(positive(f, v)?); Ok(()) }),
    flag(&["--outcomes"], "FILE", EXPLAIN, "the campaign log to read [required]", |o, f, v| { o.outcomes = Some(path(f, v)?); Ok(()) }),
    flag(&["--trial"], "N", EXPLAIN, "address the trial by its index in the log", |o, f, v| { o.which = Some(TrialRef::Index(number(f, v)?)); Ok(()) }),
    flag(&["--id"], "N", EXPLAIN, "address the trial by stable id (decimal or 0xHEX)", |o, f, v| { o.which = Some(TrialRef::Id(trial_id(f, v)?)); Ok(()) }),
    flag(&["--out"], "FILE", CAMPAIGN | EXPLAIN | ASM | TRACE, "write the report, timeline, binary or trace to FILE", |o, f, v| { o.out = Some(path(f, v)?); Ok(()) }),
    flag(&["-o"], "FILE", ASM, "alias for --out", |o, f, v| { o.out = Some(path(f, v)?); Ok(()) }),
    flag(&["--csv"], "FILE", SCHEMES, "write the per-cell table as CSV", |o, f, v| { o.csv = Some(path(f, v)?); Ok(()) }),
    flag(&["--json"], "FILE", SCHEMES, "write rows and ranking as JSON", |o, f, v| { o.json = Some(path(f, v)?); Ok(()) }),
    flag(&["--trace-out"], "FILE", MACHINE, "pipetrace (.txt → text, else Chrome JSON)", |o, f, v| { o.trace_out = Some(path(f, v)?); Ok(()) }),
    flag(&["--metrics-out"], "FILE", METRICS, "per-interval metrics (.json → JSON, else CSV)", |o, f, v| { o.metrics_out = Some(path(f, v)?); Ok(()) }),
    flag(&["--metrics-interval"], "N", METRICS, "metrics sampling interval in cycles (default 10000)", |o, f, v| { o.metrics_interval = positive(f, v)?; Ok(()) }),
    flag(&["--telemetry-out"], "FILE", FAULTS, "stream a JSONL telemetry journal", |o, f, v| { o.eval.telemetry_out = Some(path(f, v)?.into()); Ok(()) }),
    flag(&["--help"], "", Cmd::MAX, "print this help", |o, _, _| { o.help = true; Ok(()) }),
];

/// `reese --help`: the command list.
fn overview() -> String {
    let mut s = String::from("usage: reese <command> [options]\n\ncommands:\n");
    for c in &COMMANDS {
        s += &format!("  {:<9} {}\n", c.name, c.about.lines().next().unwrap_or(""));
    }
    s + "\n`reese <command> --help` lists a command's options.\n"
}

/// `reese <command> --help`: the usage line and the command's rows of
/// [`FLAGS`], with `SCHEMES` and `ISAS` spelled out from the registries.
fn help(cmd: Cmd) -> String {
    let c = command(cmd);
    let usage = format!("reese {} {} [options]", c.name, c.arg).replace("  ", " ");
    let mut s = format!("usage: {usage}\n{}\n\noptions:\n", c.about);
    let schemes = Scheme::ALL.map(Scheme::name).join("|");
    let isas = IsaId::ALL.map(IsaId::name).join("|");
    for f in FLAGS.iter().filter(|f| f.cmds & cmd != 0) {
        let names = format!("{} {}", f.names.join(", "), f.arg);
        let text = f.help.replace("SCHEMES", &schemes).replace("ISAS", &isas);
        s += &format!("  {:<24} {text}\n", names.trim_end());
    }
    s
}

/// `reese run`'s default committed-instruction budget: five times the
/// longest documented run (2M instructions), so no built-in kernel at a
/// documented scale reaches it, while a program that never halts still
/// ends in seconds.
const RUN_BUDGET: u64 = 10_000_000;

/// Every parsed value of every subcommand. [`Opts::new`] holds the
/// per-command defaults; [`parse`] fills in the flags and then resolves
/// the program(s) the command runs.
#[derive(Default)]
struct Opts {
    cmd: Cmd,
    help: bool,
    /// The positional argument: a program file (for `mix`, `disasm` and
    /// `trace` also a kernel name).
    input: Option<String>,
    kernels: Vec<String>,
    scale: u32,
    target: Option<u64>,
    isa: IsaId,
    /// A registry name, or `emulate` on `run`.
    scheme: &'static str,
    base: PipelineConfig,
    spare_alus: u32,
    spare_muls: u32,
    rqueue: usize,
    early_removal: bool,
    dup_period: u64,
    faults: Vec<InjectedFault>,
    skip: u64,
    verbose: bool,
    mix: FaultMix,
    /// Trials, seed, jobs, engine, instruction budget and telemetry
    /// journal, shared by `run`, `campaign` and `schemes`.
    eval: EvalOptions,
    ckpt_every: u64,
    outcomes_jsonl: Option<String>,
    resume: Option<String>,
    trial_limit: Option<usize>,
    outcomes: Option<String>,
    which: Option<TrialRef>,
    out: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: u64,
    /// The program of every command but `schemes`, `asm`, `kernels`.
    program: Option<Program>,
    /// The named kernels `schemes` ranks on.
    suite: Vec<(String, Program)>,
}

impl Opts {
    fn new(cmd: Cmd) -> Opts {
        let mut o = Opts {
            cmd,
            scheme: "reese",
            scale: 1,
            rqueue: 32,
            dup_period: 1,
            mix: FaultMix::broad(),
            ckpt_every: reese::faults::DEFAULT_CKPT_EVERY,
            metrics_interval: Tracer::DEFAULT_INTERVAL,
            ..Opts::default()
        };
        match cmd {
            RUN => {
                o.scheme = "baseline";
                o.eval.max_instructions = RUN_BUDGET;
            }
            CAMPAIGN => {
                o.eval.trials = 200;
                o.eval.jobs = reese::stats::available_jobs();
            }
            SCHEMES => o.mix = FaultMix::result_errors_only(),
            _ => {}
        }
        o
    }

    /// The program [`parse`] resolved.
    fn program(&self) -> &Program {
        self.program.as_ref().expect("resolved by parse")
    }

    /// The `--scheme` choice as a registry entry (every command but
    /// `run`, whose `emulate` is not one).
    fn detection_scheme(&self) -> Scheme {
        Scheme::parse(self.scheme).expect("resolved against the registry")
    }

    /// REESE over the base machine with the spare units and R-stream
    /// knobs; their defaults are [`ReeseConfig::over`]'s own.
    fn reese_config(&self) -> ReeseConfig {
        ReeseConfig::over(self.base.clone())
            .with_spare_int_alus(self.spare_alus)
            .with_spare_int_muldivs(self.spare_muls)
            .with_rqueue_size(self.rqueue)
            .with_early_removal(self.early_removal)
            .with_duplication_period(self.dup_period)
    }

    /// A collecting tracer when any observability output was requested;
    /// `None` keeps the simulators on the statically-dispatched no-op
    /// path.
    fn tracer(&self) -> Option<Tracer> {
        (self.trace_out.is_some() || self.metrics_out.is_some())
            .then(|| Tracer::new().with_interval(self.metrics_interval))
    }

    /// The timed run every scheme shares: `--skip` functional
    /// fast-forward, then `--max-insns` commits. `--inject` seqs stay
    /// global, so a fault inside the skipped region never fires.
    fn spec<F: Default>(&self) -> RunSpec<'_, NoopObserver, F> {
        RunSpec::program(self.program())
            .skip(self.skip)
            .limit(self.eval.max_instructions)
    }
}

/// Parses `args` for `cmd`, one [`FLAGS`] row per flag, then runs the
/// checks that need every flag seen (see [`resolve_programs`]).
fn parse(cmd: Cmd, args: &[String]) -> Result<Opts, CliError> {
    let mut o = Opts::new(cmd);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if command(cmd).arg.is_empty() || o.input.is_some() {
                return Err(format!("unexpected argument `{arg}`").into());
            }
            o.input = Some(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.cmds & cmd != 0 && f.names.contains(&arg.as_str()))
            .ok_or_else(|| format!("unknown option `{arg}` (see `--help`)"))?;
        let value = if flag.arg.is_empty() {
            ""
        } else {
            it.next().ok_or_else(|| format!("`{arg}` needs a value"))?
        };
        (flag.set)(&mut o, arg, value)?;
    }
    if !o.help {
        resolve_programs(&mut o)?;
    }
    Ok(o)
}

/// Post-parse checks: flag exclusions, program selection (kernel names
/// resolve here, so `--kernel` and `--isa` compose in either order) and
/// machine geometry.
fn resolve_programs(o: &mut Opts) -> Result<(), CliError> {
    match o.cmd {
        SCHEMES => {
            // The ranking runs every registered scheme, dispatch
            // duplication included.
            check_geometry(o, true)?;
            o.suite = suite(o)?;
        }
        MIX | DISASM | TRACE => {
            let Some(name) = &o.input else {
                return Err("give an assembly file or kernel name".into());
            };
            o.program = Some(match build_kernel(o.isa, name, 1) {
                Ok((_, program)) => program,
                Err(_) => load_file(o.isa, name)?,
            });
        }
        cmd if cmd & SIM != 0 => {
            if o.resume.is_some() && o.outcomes_jsonl.is_some() {
                return Err(
                    "`--resume` already appends to its log; drop `--outcomes-jsonl`".into(),
                );
            }
            if cmd == EXPLAIN {
                o.outcomes
                    .as_ref()
                    .ok_or("`explain` needs --outcomes <campaign log>")?;
                o.which
                    .ok_or("address the trial with --trial <index> or --id <stable id>")?;
            }
            o.program = Some(match (&o.input, o.kernels.last()) {
                (Some(_), Some(_)) => return Err("give a file or --kernel, not both".into()),
                (Some(path), None) => load_file(o.isa, path)?,
                (None, Some(name)) => build_kernel(o.isa, name, o.scale)?.1,
                (None, None) if cmd == RUN => {
                    return Err("give an assembly file or --kernel NAME".into())
                }
                (None, None) => build_kernel(o.isa, "lisp", o.scale)?.1,
            });
            check_geometry(o, o.scheme == "duplex")?;
        }
        _ => {}
    }
    Ok(())
}

/// The `schemes` kernel list: every `--kernel`, or else the selected
/// ISA's whole catalogue in table order, each at `--scale` or
/// calibrated to `--target`.
fn suite(o: &Opts) -> Result<Vec<(String, Program)>, CliError> {
    if o.scale != 1 && o.target.is_some() {
        return Err("give --scale or --target, not both".into());
    }
    if o.target.is_some() && o.isa != IsaId::Native {
        return Err(
            "--target calibrates the native Table 2 suite; rv32i ports take --scale".into(),
        );
    }
    let names: Vec<&str> = match (o.kernels.is_empty(), o.isa) {
        (false, _) => o.kernels.iter().map(String::as_str).collect(),
        (true, IsaId::Native) => Kernel::ALL.map(Kernel::name).to_vec(),
        (true, IsaId::Rv32i) => Rv32Kernel::ALL.map(Rv32Kernel::name).to_vec(),
    };
    names
        .into_iter()
        .map(|name| {
            let (name, program) = match o.target {
                Some(t) => {
                    let k = kernel_by_name(name)?;
                    (k.name(), k.build_for(t))
                }
                None => build_kernel(o.isa, name, o.scale)?,
            };
            Ok((name.to_string(), program))
        })
        .collect()
}

fn machine(name: &str) -> Result<PipelineConfig, CliError> {
    let ruu32 = PipelineConfig::starting().with_ruu(32).with_lsq(16);
    Ok(match name {
        "starting" => PipelineConfig::starting(),
        "ruu32" => ruu32,
        "wide16" => ruu32.with_width(16),
        "ports4" => ruu32.with_width(16).with_mem_ports(4),
        other => return Err(format!("unknown machine `{other}`").into()),
    })
}

fn kernel_by_name(name: &str) -> Result<Kernel, CliError> {
    Kernel::ALL
        .into_iter()
        .find(|k| k.name() == name || k.paper_benchmark() == name)
        .ok_or_else(|| format!("unknown kernel `{name}` (try `reese kernels`)").into())
}

/// Builds a named kernel under the selected ISA — the Table 2 suite for
/// the native ISA, the hand-ported RV32I kernels for rv32i — and
/// returns it with its canonical name. Every kernel selection comes
/// through here.
fn build_kernel(isa: IsaId, name: &str, scale: u32) -> Result<(&'static str, Program), CliError> {
    match isa {
        IsaId::Native => {
            let k = kernel_by_name(name)?;
            Ok((k.name(), k.build(scale)))
        }
        IsaId::Rv32i => {
            let Some(k) = Rv32Kernel::ALL.into_iter().find(|k| k.name() == name) else {
                let ports = Rv32Kernel::ALL.map(Rv32Kernel::name).join("|");
                return Err(
                    format!("no rv32i port of kernel `{name}` (rv32i kernels: {ports})").into(),
                );
            };
            // The ports load their pass count with a signed 32-bit `li`.
            if i32::try_from(scale).is_err() {
                let max = i32::MAX;
                return Err(format!("rv32i kernels take `--scale` ≤ {max}, got {scale}").into());
            }
            Ok((k.name(), k.build(scale)))
        }
    }
}

/// Loads a program file through the selected ISA frontend: `.bin` files
/// as flat text-segment images, anything else as assembler source.
fn load_file(isa: IsaId, path: &str) -> Result<Program, CliError> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".bin") {
        // The loader reports an instruction index; print it in bytes.
        return isa.frontend().load_flat(&bytes).map_err(|(index, e)| {
            let offset = index as u64 * isa.inst_size();
            format!("{path}: byte offset {offset}: {e}").into()
        });
    }
    let source = String::from_utf8(bytes).map_err(|_| {
        format!("{path} is not UTF-8 assembler source (flat binaries need a `.bin` extension)")
    })?;
    Ok(isa.frontend().assemble(&source)?)
}

/// Resolves a user-supplied name against a candidate list, accepting
/// exact names and unique prefixes. All `--scheme` flags funnel through
/// this, so every front end shares one error shape and the accepted set
/// is derived from the registry rather than hand-written per command.
fn resolve<'a>(what: &str, input: &str, names: &[&'a str]) -> Result<&'a str, CliError> {
    if let Some(exact) = names.iter().find(|n| **n == input) {
        return Ok(exact);
    }
    // The empty string prefixes everything, so it never resolves.
    let matches: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !input.is_empty() && n.starts_with(input))
        .collect();
    match matches[..] {
        [only] => Ok(only),
        [] => Err(format!("unknown {what} `{input}`, want {}", names.join("|")).into()),
        _ => Err(format!("ambiguous {what} `{input}`: matches {}", matches.join(", ")).into()),
    }
}

/// Resolves a `--scheme` name for `cmd` against the detection-scheme
/// registry. `run` also takes the functional emulator (it has no timing
/// model and so is not a [`Scheme`]).
fn parse_scheme(cmd: Cmd, input: &str) -> Result<&'static str, CliError> {
    let mut names = Scheme::ALL.map(Scheme::name).to_vec();
    if cmd == RUN {
        names.insert(0, "emulate");
    }
    resolve("scheme", input, &names)
}

/// Parses an instruction-set name from the ISA registry, accepting
/// exact names and unique prefixes like `--scheme` does.
fn parse_isa(input: &str) -> Result<IsaId, CliError> {
    let names = IsaId::ALL.map(IsaId::name);
    let name = resolve("isa", input, &names)?;
    Ok(IsaId::parse(name).expect("resolved name is registered"))
}

fn parse_mix(input: &str) -> Result<FaultMix, CliError> {
    match input {
        "broad" => Ok(FaultMix::broad()),
        "result" => Ok(FaultMix::result_errors_only()),
        other => Err(format!("unknown mix `{other}`, want broad|result").into()),
    }
}

fn parse_fault(spec: &str) -> Result<InjectedFault, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("bad fault spec `{spec}`, want SEQ:BIT:p|r").into());
    }
    let seq: u64 = parts[0].parse()?;
    let bit: u8 = parts[1].parse()?;
    Ok(match parts[2] {
        "p" => InjectedFault::primary(seq, bit),
        "r" => InjectedFault::redundant(seq, bit),
        "perm" => InjectedFault::permanent(seq, bit),
        other => return Err(format!("bad stream `{other}`, want p, r, or perm").into()),
    })
}

/// Parses a stable trial id, in decimal or `0x` hex.
fn trial_id(flag: &str, raw: &str) -> Result<u64, CliError> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
    .ok_or_else(|| format!("`{flag}` expects a decimal or 0x-hex id, got `{raw}`").into())
}

/// Parses a flag value that must be a non-negative integer.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse().map_err(|_| {
        format!("`{flag}` expects a non-negative integer in range, got `{raw}`").into()
    })
}

/// Parses a flag value that must be a strictly positive integer.
///
/// Zero is rejected here, at parse time, because it would otherwise
/// degrade silently far from the command line: `-j 0` quietly runs on
/// one worker, and `--metrics-interval 0` makes the tracer sample every
/// cycle.
fn positive<T: TryFrom<u64>>(flag: &str, raw: &str) -> Result<T, CliError> {
    let v: u64 = raw
        .parse()
        .map_err(|_| format!("`{flag}` expects a positive integer, got `{raw}`"))?;
    if v == 0 {
        return Err(format!("`{flag}` must be at least 1").into());
    }
    T::try_from(v).map_err(|_| format!("`{flag}` value `{raw}` is out of range").into())
}

/// Checks a file-name flag value.
fn path(flag: &str, raw: &str) -> Result<String, CliError> {
    if raw.is_empty() {
        return Err(format!("`{flag}` needs a file name").into());
    }
    Ok(raw.to_string())
}

/// Rejects inconsistent machine-geometry overrides at parse time, so
/// a bad `--ruu-size`/`--lsq-size` pair surfaces as a CLI error instead
/// of an `assert!` deep inside `PipelineConfig::validate`. `duplex` says
/// whether the command runs dispatch duplication, which moves
/// `width / 2` instruction pairs per cycle and so needs width 2 or more
/// (at width 1 it would stall until the deadlock detector fired).
///
/// Spare units are bounded by the most instructions that can be in
/// flight at once, RUU plus R-stream Queue entries: more could never all
/// be busy, and an unbounded count would overflow the unit total.
fn check_geometry(o: &Opts, duplex: bool) -> Result<(), CliError> {
    let base = &o.base;
    if base.lsq_size > base.ruu_size {
        return Err(format!(
            "`--lsq-size` ({}) must not exceed the RUU size ({}) — the LSQ tracks a subset of the RUU window",
            base.lsq_size, base.ruu_size
        )
        .into());
    }
    if duplex && base.width < 2 {
        return Err(format!(
            "dispatch duplication (`duplex`) needs `--width` ≥ 2: it dispatches and commits width / 2 instruction pairs per cycle, and width {} gives none",
            base.width
        )
        .into());
    }
    let in_flight = base.ruu_size.saturating_add(o.rqueue);
    for (flag, spares, units) in [
        ("--spare-alus", o.spare_alus, base.fu.int_alu),
        ("--spare-muls", o.spare_muls, base.fu.int_muldiv),
    ] {
        let fits = usize::try_from(spares).is_ok_and(|n| n <= in_flight);
        if !fits || units.checked_add(spares).is_none() {
            return Err(format!(
                "`{flag}` {spares} exceeds the {in_flight} instructions that can be in flight (RUU {} + R-stream Queue {})",
                base.ruu_size, o.rqueue
            )
            .into());
        }
    }
    Ok(())
}

/// Prints each detection a redundant run reported.
fn print_detections(detections: &[DetectionEvent]) {
    for d in detections {
        println!(
            "  soft error detected: instruction #{} at pc {:#x}, latency {} cycles",
            d.seq,
            d.pc,
            d.latency()
        );
    }
}

/// Writes a captured pipetrace: `.txt` → compact text, anything else →
/// Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
fn write_trace(path: &str, ring: &TraceRing) -> Result<(), CliError> {
    let body = if path.ends_with(".txt") {
        ring.to_pipetrace_text()
    } else {
        ring.to_chrome_json()
    };
    std::fs::write(path, body)?;
    println!(
        "trace written to {path}: {} events ({} dropped)",
        ring.len(),
        ring.dropped()
    );
    Ok(())
}

/// Writes a metrics series: `.json` → JSON, anything else → CSV.
fn write_metrics(path: &str, metrics: &MetricsSeries) -> Result<(), CliError> {
    let body = if path.ends_with(".json") {
        metrics.to_json()
    } else {
        metrics.to_csv()
    };
    std::fs::write(path, body)?;
    println!(
        "metrics written to {path}: {} intervals of {} cycles",
        metrics.rows.len(),
        metrics.interval
    );
    Ok(())
}

/// Flushes a finished run's tracer to the requested output files.
fn write_observability(tracer: Option<Tracer>, o: &Opts) -> Result<(), CliError> {
    let Some(mut t) = tracer else {
        return Ok(());
    };
    t.finish();
    let (ring, metrics) = t.into_parts();
    if let Some(path) = &o.trace_out {
        write_trace(path, &ring)?;
    }
    if let Some(path) = &o.metrics_out {
        write_metrics(path, &metrics)?;
    }
    Ok(())
}

fn cmd_run(o: Opts) -> Result<(), CliError> {
    match o.scheme {
        "emulate" => {
            if o.trace_out.is_some() || o.metrics_out.is_some() {
                return Err("--trace-out/--metrics-out need a timing scheme, not emulate".into());
            }
            let mut emu = Emulator::new(o.program());
            let r = emu.run(o.eval.max_instructions)?;
            println!(
                "emulated {} instructions, stop: {:?}",
                r.instructions, r.stop
            );
            print_output(&r.output);
        }
        "baseline" => {
            if !o.faults.is_empty() {
                return Err(
                    "`baseline` has no redundancy to detect faults; inject them with `reese campaign --scheme baseline`"
                        .into(),
                );
            }
            let mut tracer = o.tracer();
            let sim = PipelineSim::new(o.base.clone());
            let spec = o.spec();
            let r = match &mut tracer {
                Some(t) => sim.run_spec(spec.observe(t))?,
                None => sim.run_spec(spec)?,
            };
            println!(
                "baseline: {} instructions in {} cycles — IPC {:.3}",
                r.committed_instructions(),
                r.cycles(),
                r.ipc()
            );
            note_budget(&o, r.committed_instructions(), r.exit_code);
            print_output(&r.output);
            if o.verbose {
                print!("{}", r.stats);
            } else {
                print_pipeline_stats(&r.stats);
            }
            write_observability(tracer, &o)?;
        }
        "duplex" => {
            let mut tracer = o.tracer();
            let sim = DuplexSim::new(o.base.clone());
            let spec = o.spec().faults(DuplexFaults(&o.faults));
            let r = match &mut tracer {
                Some(t) => sim.run_spec(spec.observe(t))?,
                None => sim.run_spec(spec)?,
            };
            println!(
                "dispatch duplication: {} instructions in {} cycles — IPC {:.3}, {} comparisons, {} detections",
                r.committed_instructions(),
                r.cycles(),
                r.ipc(),
                r.stats.comparisons,
                r.stats.detections
            );
            note_budget(&o, r.committed_instructions(), r.exit_code);
            print_detections(&r.detections);
            print_output(&r.output);
            write_observability(tracer, &o)?;
        }
        "reese" => {
            let mut tracer = o.tracer();
            let sim = ReeseSim::new(o.reese_config());
            let spec = o.spec().faults(ReeseFaults::injected(&o.faults));
            let r = match &mut tracer {
                Some(t) => sim.run_spec(spec.observe(t))?,
                None => sim.run_spec(spec)?,
            };
            println!(
                "REESE: {} instructions in {} cycles — IPC {:.3}, {} comparisons, {} detections",
                r.committed_instructions(),
                r.cycles(),
                r.ipc(),
                r.stats.comparisons,
                r.stats.detections
            );
            note_budget(&o, r.committed_instructions(), r.exit_code);
            print_detections(&r.detections);
            print_output(&r.output);
            if o.verbose {
                print!("{}", r.stats);
            } else {
                print_pipeline_stats(&r.stats.pipeline);
            }
            write_observability(tracer, &o)?;
        }
        name @ ("meek" | "swift") => {
            let scheme = Scheme::parse(name).expect("registry name");
            if o.trace_out.is_some() || o.metrics_out.is_some() {
                return Err(
                    format!("--trace-out/--metrics-out are not supported for `{name}`").into(),
                );
            }
            if !o.faults.is_empty() || o.skip > 0 {
                return Err(format!(
                    "`{name}` runs clean here; inject faults with `reese campaign --scheme {name}`"
                )
                .into());
            }
            let cfg = ReeseConfig::over(o.base.clone());
            let backend = reese::faults::schemes::build(scheme, &cfg);
            let prepared = backend.prepare(o.program())?;
            let r = backend.run_limit(&prepared, o.eval.max_instructions)?;
            println!(
                "{name}: {} instructions in {} cycles — IPC {:.3}",
                r.committed,
                r.cycles,
                r.committed as f64 / r.cycles.max(1) as f64
            );
            note_budget(&o, r.committed, r.exit_code);
            if prepared.len() != o.program().len() {
                println!(
                    "  transformed program: {} → {} static instructions ({:.2}x)",
                    o.program().len(),
                    prepared.len(),
                    prepared.len() as f64 / o.program().len().max(1) as f64
                );
            }
            print_output(&r.output);
        }
        other => return Err(format!("unknown scheme `{other}`").into()),
    }
    Ok(())
}

fn cmd_campaign(o: Opts) -> Result<(), CliError> {
    let scheme = o.detection_scheme();
    if o.trace_out.is_some() && scheme != Scheme::Reese {
        return Err(
            "--trace-out traces the clean REESE reference run; it needs --scheme reese".into(),
        );
    }
    let cfg = o.reese_config();
    let mut campaign = reese::faults::Campaign::new(cfg.clone(), o.mix)
        .scheme(scheme)
        .trials(o.eval.trials)
        .seed(o.eval.seed)
        .max_instructions(o.eval.max_instructions)
        .jobs(o.eval.jobs)
        .engine(o.eval.engine)
        .ckpt_every(o.ckpt_every)
        .metrics_interval(o.metrics_out.as_ref().map_or(0, |_| o.metrics_interval));
    if let Some(path) = &o.outcomes_jsonl {
        campaign = campaign.outcomes_jsonl(path);
    }
    if let Some(path) = &o.resume {
        campaign = campaign.resume(path);
    }
    if let Some(n) = o.trial_limit {
        campaign = campaign.trial_limit(n);
    }
    if let Some(path) = &o.eval.telemetry_out {
        campaign = campaign.telemetry_out(path);
    }
    let report = campaign.run(o.program())?;
    print!("{report}");
    if let Some(path) = &o.out {
        let serialised = if path.ends_with(".json") {
            report.to_json()
        } else {
            report.to_csv()
        };
        std::fs::write(path, serialised)?;
        println!("report written to {path}");
    }
    if let Some(path) = &o.metrics_out {
        let Some(metrics) = &report.metrics else {
            return Err("campaign produced no metrics (no simulated trials?)".into());
        };
        write_metrics(path, metrics)?;
    }
    if let Some(path) = &o.trace_out {
        // The campaign itself runs thousands of short trials; a pipetrace
        // of all of them would be meaningless. Trace the clean (fault-free)
        // reference run instead, which every trial is compared against.
        let mut tracer = Tracer::new().with_interval(o.metrics_interval);
        ReeseSim::new(cfg).run_spec(
            RunSpec::program(o.program())
                .limit(o.eval.max_instructions)
                .observe(&mut tracer),
        )?;
        tracer.finish();
        let (ring, _) = tracer.into_parts();
        write_trace(path, &ring)?;
    }
    Ok(())
}

fn cmd_schemes(o: Opts) -> Result<(), CliError> {
    let cfg = ReeseConfig::over(o.base);
    let report = SchemesReport::evaluate(&cfg, &o.mix, &o.suite, &o.eval)?;
    print!("{report}");
    if let Some(path) = &o.csv {
        std::fs::write(path, report.to_csv())?;
        println!("csv written to {path}");
    }
    if let Some(path) = &o.json {
        std::fs::write(path, report.to_json())?;
        println!("json written to {path}");
    }
    if o.trace_out.is_some() || o.metrics_out.is_some() {
        // As for `campaign --trace-out`: per-trial traces would be
        // noise, so trace the clean REESE reference run — here once per
        // evaluated kernel, stitched end-to-end with cycle offsets.
        let mut ring = TraceRing::new(Tracer::DEFAULT_RING_CAPACITY);
        let mut metrics = MetricsSeries::default();
        let mut offset = 0u64;
        for (name, program) in &o.suite {
            let mut tracer = Tracer::new().with_interval(o.metrics_interval);
            let r = ReeseSim::new(cfg.clone()).run_spec(
                RunSpec::program(program)
                    .limit(o.eval.max_instructions)
                    .observe(&mut tracer),
            )?;
            tracer.finish();
            let (kernel_ring, kernel_metrics) = tracer.into_parts();
            ring.merge_concat(&kernel_ring, offset);
            metrics.merge_concat(&kernel_metrics, offset);
            offset += r.stats.pipeline.cycles;
            println!(
                "traced clean reese run on {name} ({} cycles)",
                r.stats.pipeline.cycles
            );
        }
        if let Some(path) = &o.trace_out {
            write_trace(path, &ring)?;
        }
        if let Some(path) = &o.metrics_out {
            write_metrics(path, &metrics)?;
        }
    }
    Ok(())
}

fn cmd_explain(o: Opts) -> Result<(), CliError> {
    let ex = reese::faults::explain_trial(
        &o.reese_config(),
        o.detection_scheme(),
        o.program(),
        std::path::Path::new(o.outcomes.as_deref().expect("checked by parse")),
        o.which.expect("checked by parse"),
    )?;
    print!("{}", ex.text);
    if let Some(path) = &o.out {
        std::fs::write(path, &ex.text)?;
        println!("forensic timeline written to {path}");
    }
    if let Some(path) = &o.trace_out {
        std::fs::write(path, ex.to_chrome_json())?;
        println!("forensic trace written to {path}");
    }
    Ok(())
}

/// Tells stderr when a timed run stopped at its instruction budget
/// rather than at `halt` (the summary line alone does not say).
fn note_budget(o: &Opts, committed: u64, exit_code: Option<u64>) {
    if exit_code.is_none() && committed >= o.eval.max_instructions {
        eprintln!(
            "note: stopped at the {committed}-instruction budget before `halt`; raise it with --max-insns"
        );
    }
}

fn print_output(output: &[i64]) {
    if !output.is_empty() {
        println!("program output: {output:?}");
    }
}

fn print_pipeline_stats(s: &reese::pipeline::PipelineStats) {
    println!(
        "  branch mispredict rate {:.2}%, idle issue bandwidth {:.0}%",
        s.branch.mispredict_rate() * 100.0,
        s.idle_issue_fraction(8) * 100.0
    );
    if let Some(h) = &s.hierarchy {
        println!(
            "  L1D miss rate {:.2}%, L1I miss rate {:.2}%, L2 miss rate {:.2}%",
            h.l1d.miss_rate() * 100.0,
            h.l1i.miss_rate() * 100.0,
            h.l2.miss_rate() * 100.0
        );
    }
}

/// `reese asm <file.s> --isa <isa> -o <file.bin>`: assembles source
/// through the selected ISA frontend and writes the flat text-segment
/// image, the format `load_flat` (and thus `reese run file.bin`)
/// accepts back.
fn cmd_asm(o: Opts) -> Result<(), CliError> {
    let isa = o.isa;
    let path = o.input.as_deref().ok_or("give an assembly file")?;
    let out = o
        .out
        .as_deref()
        .ok_or("give an output path with -o <file.bin>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = isa.frontend().assemble(&text)?;
    if !program.data().is_empty() {
        return Err(format!(
            "{path}: flat binaries carry only the text segment, but this program has {} data bytes",
            program.data().len()
        )
        .into());
    }
    let image = program
        .text_image()
        .map_err(|(idx, _)| format!("{path}: instruction {idx} has no {isa} encoding"))?;
    std::fs::write(out, &image)?;
    println!(
        "{out}: {} {} instructions, {} bytes",
        program.len(),
        isa.name(),
        image.len()
    );
    Ok(())
}

fn cmd_mix(o: Opts) -> Result<(), CliError> {
    println!("{}", measure_mix(o.program(), 10_000_000));
    Ok(())
}

fn cmd_disasm(o: Opts) -> Result<(), CliError> {
    let p = o.program();
    let listing = p.isa().frontend().disassemble_text(p.text(), p.text_base());
    print!("{listing}");
    Ok(())
}

fn cmd_trace(o: Opts) -> Result<(), CliError> {
    let trace = reese::cpu::Trace::capture(o.program(), 10_000_000)?;
    let (branches, taken) = trace.branch_profile();
    println!(
        "{} dynamic instructions; {:.1}% memory; {branches} branches ({:.0}% taken); data working set {} lines (32 B)",
        trace.len(),
        trace.mem_fraction() * 100.0,
        if branches == 0 { 0.0 } else { taken as f64 / branches as f64 * 100.0 },
        trace.data_working_set(32)
    );
    println!("hottest basic blocks:");
    for (pc, count) in trace.hot_blocks(5) {
        println!("  {pc:#010x}: {count} executions");
    }
    if let Some(path) = &o.out {
        let file = std::fs::File::create(path)?;
        trace.write_to(std::io::BufWriter::new(file))?;
        println!("trace written to {path}");
    }
    Ok(())
}

fn cmd_kernels(_: Opts) -> Result<(), CliError> {
    println!("built-in kernels (SPEC95 integer stand-ins):");
    for k in Kernel::ALL {
        println!(
            "  {:<9} — stands in for {} ({})",
            k.name(),
            k.paper_benchmark(),
            k.paper_input()
        );
    }
    println!("rv32i kernel ports (select with --isa rv32i):");
    for k in Rv32Kernel::ALL {
        println!("  {:<9} — {}", k.name(), k.description());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_parse() {
        for name in ["starting", "ruu32", "wide16", "ports4"] {
            machine(name).expect(name).validate();
        }
        assert!(machine("huge").is_err());
    }

    #[test]
    fn kernels_parse_by_both_names() {
        assert_eq!(kernel_by_name("lisp").unwrap(), Kernel::Lisp);
        assert_eq!(kernel_by_name("li").unwrap(), Kernel::Lisp);
        assert_eq!(kernel_by_name("gcc").unwrap(), Kernel::Compiler);
        assert!(kernel_by_name("nope").is_err());
    }

    #[test]
    fn fault_specs_parse() {
        assert_eq!(
            parse_fault("10:3:p").unwrap(),
            InjectedFault::primary(10, 3)
        );
        assert_eq!(
            parse_fault("10:3:r").unwrap(),
            InjectedFault::redundant(10, 3)
        );
        assert_eq!(
            parse_fault("10:3:perm").unwrap(),
            InjectedFault::permanent(10, 3)
        );
        assert!(parse_fault("10:3").is_err());
        assert!(parse_fault("10:3:x").is_err());
        assert!(parse_fault("a:3:p").is_err());
    }

    #[test]
    fn run_alone_defaults_to_a_finite_budget() {
        let kernel = strings(&["--kernel", "lisp"]);
        assert_eq!(
            parse(RUN, &kernel).unwrap().eval.max_instructions,
            RUN_BUDGET
        );
        // Campaign headers record the budget, so theirs stays unbounded.
        for cmd in [CAMPAIGN, SCHEMES] {
            assert_eq!(parse(cmd, &[]).unwrap().eval.max_instructions, u64::MAX);
        }
    }

    #[test]
    fn run_options_parse() {
        let args: Vec<String> = [
            "--kernel",
            "perl",
            "--scheme",
            "reese",
            "--spare-alus",
            "2",
            "--rqueue",
            "64",
            "--early-removal",
            "--dup-period",
            "2",
            "--inject",
            "5:1:p",
            "--max-insns",
            "1000",
            "--skip",
            "10",
            "--stats",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.csv",
            "--metrics-interval",
            "500",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let o = parse(RUN, &args).unwrap();
        assert_eq!(o.scheme, "reese");
        assert_eq!(o.spare_alus, 2);
        assert_eq!(o.rqueue, 64);
        assert!(o.early_removal);
        assert_eq!(o.dup_period, 2);
        assert_eq!(o.faults.len(), 1);
        assert_eq!(o.eval.max_instructions, 1000);
        assert_eq!(o.skip, 10);
        assert!(o.verbose);
        assert!(!o.program().is_empty());
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.csv"));
        assert_eq!(o.metrics_interval, 500);
        assert!(o.tracer().is_some());
    }

    #[test]
    fn observability_flags_default_off() {
        let args: Vec<String> = ["--kernel", "strings"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let o = parse(RUN, &args).unwrap();
        assert!(o.trace_out.is_none() && o.metrics_out.is_none());
        assert_eq!(o.metrics_interval, Tracer::DEFAULT_INTERVAL);
        assert!(o.tracer().is_none(), "no flags → no tracer → no-op path");
    }

    #[test]
    fn campaign_options_parse() {
        let args: Vec<String> = [
            "--kernel",
            "perl",
            "--trials",
            "50",
            "--seed",
            "9",
            "--mix",
            "result",
            "-j",
            "4",
            "--max-insns",
            "5000",
            "--out",
            "report.json",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let o = parse(CAMPAIGN, &args).unwrap();
        assert_eq!(o.eval.trials, 50);
        assert_eq!(o.eval.seed, 9);
        assert_eq!(o.eval.jobs, 4);
        assert_eq!(o.eval.max_instructions, 5000);
        assert_eq!(o.out.as_deref(), Some("report.json"));
        assert!(!o.program().is_empty());
    }

    #[test]
    fn campaign_defaults_to_available_parallelism() {
        let o = parse(CAMPAIGN, &[]).unwrap();
        assert!(o.eval.jobs >= 1);
        assert_eq!(o.eval.trials, 200);
        assert!(!o.program().is_empty(), "defaults to the lisp kernel");
        assert_eq!(o.eval.engine, reese::faults::TrialEngine::Replay);
        assert_eq!(o.ckpt_every, reese::faults::DEFAULT_CKPT_EVERY);
        assert!(o.outcomes_jsonl.is_none() && o.resume.is_none());
        assert!(o.trial_limit.is_none());
    }

    #[test]
    fn campaign_replay_flags_parse() {
        let o = parse(
            CAMPAIGN,
            &[
                "--engine",
                "full",
                "--injections",
                "1000000",
                "--ckpt-every",
                "512",
                "--outcomes-jsonl",
                "log.jsonl",
                "--trial-limit",
                "500",
            ]
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(o.eval.engine, reese::faults::TrialEngine::Full);
        assert_eq!(o.eval.trials, 1_000_000, "--injections aliases --trials");
        assert_eq!(o.ckpt_every, 512);
        assert_eq!(o.outcomes_jsonl.as_deref(), Some("log.jsonl"));
        assert_eq!(o.trial_limit, Some(500));
    }

    #[test]
    fn campaign_scale_grows_the_kernel() {
        let small = parse(CAMPAIGN, &strings(&["--kernel", "strings"])).unwrap();
        let big = parse(CAMPAIGN, &strings(&["--kernel", "strings", "--scale", "4"])).unwrap();
        assert_eq!(big.scale, 4);
        assert!(big.program().len() >= small.program().len());
        let err = parse(CAMPAIGN, &strings(&["--scale", "0"]))
            .err()
            .expect("zero scale must be rejected")
            .to_string();
        assert!(
            err.contains("--scale") && err.contains("at least 1"),
            "got: {err}"
        );
        // Every subcommand that takes --scale checks it the same way;
        // `run` used to panic inside the kernel builder, and every rv32i
        // kernel on scales its signed 32-bit `li` can't load.
        for cmd in [RUN, CAMPAIGN, SCHEMES, EXPLAIN] {
            let name = command(cmd).name;
            let err = parse(cmd, &with(cmd, &["--scale", "0"]))
                .err()
                .expect("zero scale must be rejected")
                .to_string();
            assert!(
                err.contains("--scale") && err.contains("at least 1"),
                "{name}: {err}"
            );
            let over = with(cmd, &["--isa", "rv32i", "--scale", "2147483648"]);
            let err = parse(cmd, &over)
                .err()
                .expect("rv32i scale above i32::MAX must be rejected")
                .to_string();
            assert!(
                err.contains("--scale") && err.contains("rv32i"),
                "{name}: {err}"
            );
        }
        let top = with(RUN, &["--isa", "rv32i", "--scale", "2147483647"]);
        assert!(
            parse(RUN, &top).is_ok(),
            "i32::MAX is the largest rv32i scale"
        );
    }

    /// The smallest argv each subcommand accepts, followed by `extra`.
    fn with(cmd: Cmd, extra: &[&str]) -> Vec<String> {
        let minimal: &[&str] = match cmd {
            RUN | SCHEMES => &["--kernel", "lisp"],
            EXPLAIN => &["--outcomes", "c.jsonl", "--trial", "0"],
            ASM => &["x.s", "-o", "x.bin"],
            MIX | DISASM | TRACE => &["lisp"],
            _ => &[],
        };
        strings(&[minimal, extra].concat())
    }

    #[test]
    fn spare_units_are_bounded_by_the_in_flight_window() {
        // RUU plus R-stream Queue entries bound what can be in flight;
        // more spares could never all be busy, and u32::MAX used to
        // wrap the unit total (or abort allocating for it).
        let bound = PipelineConfig::starting().ruu_size + 32;
        for cmd in [RUN, CAMPAIGN, EXPLAIN] {
            let name = command(cmd).name;
            for flag in ["--spare-alus", "--spare-muls"] {
                for n in [u32::MAX, u32::MAX - 5, bound as u32 + 1] {
                    let err = parse(cmd, &with(cmd, &[flag, &n.to_string()]))
                        .err()
                        .unwrap_or_else(|| panic!("{name} {flag} {n} must be rejected"))
                        .to_string();
                    assert!(
                        err.contains(flag) && err.contains("in flight"),
                        "{name}: {err}"
                    );
                }
                let at_bound = with(cmd, &[flag, &bound.to_string()]);
                assert!(parse(cmd, &at_bound).is_ok(), "{name} {flag} {bound}");
            }
        }
        // A bigger window admits more spares.
        let wide = with(RUN, &["--rqueue", "64", "--spare-alus", "80"]);
        assert_eq!(parse(RUN, &wide).unwrap().spare_alus, 80);
    }

    #[test]
    fn unknown_and_malformed_flags_are_rejected_uniformly() {
        let cases: [(Cmd, &[&str], &str); 9] = [
            // `run` used to take any non-`--` token as the program file.
            (RUN, &["--kernel", "lisp", "-j", "2"], "unknown option `-j`"),
            // `mix`, `disasm` and `trace` used to ignore unknown flags.
            (MIX, &["lisp", "--bogus"], "unknown option `--bogus`"),
            (
                DISASM,
                &["lisp", "--frobnicate", "7"],
                "unknown option `--frobnicate`",
            ),
            (KERNELS, &["--isa", "rv32i"], "unknown option `--isa`"),
            // `trace --out` with no value used to write nothing.
            (TRACE, &["lisp", "--out"], "`--out` needs a value"),
            (MIX, &["lisp", "strings"], "unexpected argument `strings`"),
            (RUN, &["a.s", "b.s"], "unexpected argument `b.s`"),
            (SCHEMES, &["strings"], "unexpected argument `strings`"),
            (CAMPAIGN, &["--out", ""], "`--out` needs a file name"),
        ];
        for (cmd, args, want) in cases {
            let err = parse(cmd, &strings(args))
                .err()
                .unwrap_or_else(|| panic!("{} {args:?} must be rejected", command(cmd).name))
                .to_string();
            assert!(err.contains(want), "{args:?}: got {err}");
        }
    }

    #[test]
    fn each_subcommand_accepts_exactly_its_flags() {
        // The flags (and aliases) every subcommand accepted before the
        // table existed; `--help` is the one addition.
        let machine = ["--machine", "--ruu-size", "--lsq-size", "--width"];
        let spares = ["--spare-alus", "--spare-muls"];
        let metrics = ["--trace-out", "--metrics-out", "--metrics-interval"];
        let faults = ["--seed", "--mix", "--max-insns", "-j", "--jobs", "--engine"];
        let program = ["--kernel", "--scale", "--isa"];
        let accepted: [(Cmd, Vec<&str>); 9] = [
            (
                RUN,
                [
                    &program[..],
                    &machine,
                    &spares,
                    &metrics,
                    &[
                        "--scheme",
                        "--rqueue",
                        "--early-removal",
                        "--dup-period",
                        "--inject",
                        "--max-insns",
                        "--skip",
                        "--stats",
                    ],
                ]
                .concat(),
            ),
            (
                CAMPAIGN,
                [
                    &program[..],
                    &machine,
                    &spares,
                    &metrics,
                    &faults,
                    &[
                        "--scheme",
                        "--trials",
                        "--injections",
                        "--ckpt-every",
                        "--outcomes-jsonl",
                        "--resume",
                        "--trial-limit",
                        "--out",
                        "--telemetry-out",
                    ],
                ]
                .concat(),
            ),
            (
                SCHEMES,
                [
                    &program[..],
                    &machine,
                    &metrics,
                    &faults,
                    &["--target", "--trials", "--csv", "--json", "--telemetry-out"],
                ]
                .concat(),
            ),
            (
                EXPLAIN,
                [
                    &program[..],
                    &machine,
                    &spares,
                    &[
                        "--scheme",
                        "--outcomes",
                        "--trial",
                        "--id",
                        "--out",
                        "--trace-out",
                    ],
                ]
                .concat(),
            ),
            (ASM, vec!["--isa", "-o", "--out"]),
            (MIX, vec!["--isa"]),
            (DISASM, vec!["--isa"]),
            (TRACE, vec!["--isa", "--out"]),
            (KERNELS, vec![]),
        ];
        for (cmd, flags) in accepted {
            let name = command(cmd).name;
            for flag in &flags {
                let mut extra = vec![*flag];
                extra.extend(sample_value(flag));
                let parsed = parse(cmd, &with(cmd, &extra));
                assert!(parsed.is_ok(), "{name} {flag}: {:?}", parsed.err());
            }
            let text = help(cmd);
            let mut listed: Vec<&str> = text
                .lines()
                .skip_while(|l| *l != "options:")
                .skip(1)
                .flat_map(|l| l.split_whitespace().take_while(|t| t.starts_with('-')))
                .map(|t| t.trim_end_matches(','))
                .collect();
            let mut want = flags.clone();
            want.push("--help");
            listed.sort_unstable();
            want.sort_unstable();
            want.dedup();
            assert_eq!(listed, want, "{name} --help");
            assert!(parse(cmd, &strings(&["--help"])).unwrap().help);
        }
    }

    /// A valid value for each flag that takes one.
    fn sample_value(flag: &str) -> Option<&'static str> {
        Some(match flag {
            "--early-removal" | "--stats" => return None,
            "--scheme" => "reese",
            "--isa" => "native",
            "--machine" => "ruu32",
            "--kernel" => "strings",
            "--inject" => "5:1:p",
            "--mix" => "result",
            "--engine" => "full",
            "--id" => "0x10",
            "--ruu-size" => "64",
            "--lsq-size" => "8",
            "--target" => "1000",
            f if f.ends_with("-out") || f.ends_with("-jsonl") => "f.out",
            "--resume" | "--out" | "-o" | "--csv" | "--json" | "--outcomes" => "f.out",
            _ => "2",
        })
    }

    #[test]
    fn argv_fuzz_never_panics() {
        // Random flags from the table with hostile values, on a random
        // subcommand and ISA: parsing (which builds the selected
        // programs but simulates nothing) must return Ok or Err.
        const VALUES: [&str; 8] = [
            "0",
            "1",
            "-1",
            "",
            "2147483648",
            "4294967295",
            "18446744073709551615",
            "j#nk",
        ];
        let mut rng = reese::stats::SplitMix64::new(0xF0221);
        for _ in 0..3000 {
            let cmd = COMMANDS[rng.index(COMMANDS.len())].cmd;
            let mut args = Vec::new();
            if rng.chance(0.5) {
                args.extend(["--isa", IsaId::ALL[rng.index(IsaId::ALL.len())].name()]);
            }
            if rng.chance(0.5) {
                // A kernel in both catalogues, as a positional or a flag.
                let kernel = ["lisp", "strings", "imaging"][rng.index(3)];
                if command(cmd).arg.starts_with('<') {
                    args.push(kernel);
                } else {
                    args.extend(["--kernel", kernel]);
                }
            }
            // Mostly flags the command accepts, so values reach its checks.
            let accepted: Vec<&Flag> = FLAGS.iter().filter(|f| f.cmds & cmd != 0).collect();
            for _ in 0..rng.index(4) {
                let flag = if rng.chance(0.9) {
                    accepted[rng.index(accepted.len())]
                } else {
                    &FLAGS[rng.index(FLAGS.len())]
                };
                if flag.names != ["--help"] {
                    args.push(flag.names[rng.index(flag.names.len())]);
                    if !flag.arg.is_empty() {
                        args.push(VALUES[rng.index(VALUES.len())]);
                    }
                }
            }
            let args = strings(&args);
            let parsed = std::panic::catch_unwind(|| parse(cmd, &args).is_ok());
            assert!(
                parsed.is_ok(),
                "`reese {} {}` panicked",
                command(cmd).name,
                args.join(" ")
            );
        }
    }

    #[test]
    fn campaign_bad_engine_is_rejected_at_parse_time() {
        let err = parse(CAMPAIGN, &strings(&["--engine", "warp"]))
            .err()
            .expect("unknown engine must be rejected")
            .to_string();
        assert!(err.contains("unknown trial engine `warp`"), "got: {err}");
    }

    #[test]
    fn campaign_zero_ckpt_every_is_rejected_at_parse_time() {
        let err = parse(CAMPAIGN, &strings(&["--ckpt-every", "0"]))
            .err()
            .expect("zero interval must be rejected")
            .to_string();
        assert!(
            err.contains("--ckpt-every") && err.contains("at least 1"),
            "got: {err}"
        );
        assert!(parse(CAMPAIGN, &strings(&["--trial-limit", "0"])).is_err());
        // A zero-trial campaign used to print an empty 0/0 report.
        for flag in ["--trials", "--injections"] {
            let err = parse(CAMPAIGN, &strings(&[flag, "0"]))
                .err()
                .expect("zero trials must be rejected")
                .to_string();
            assert!(
                err.contains(flag) && err.contains("at least 1"),
                "got: {err}"
            );
        }
    }

    #[test]
    fn campaign_resume_excludes_outcomes_jsonl() {
        let err = parse(
            CAMPAIGN,
            &strings(&["--resume", "a.jsonl", "--outcomes-jsonl", "b.jsonl"]),
        )
        .err()
        .expect("conflicting log flags must be rejected")
        .to_string();
        assert!(err.contains("--resume"), "got: {err}");
        // Each alone is fine.
        assert_eq!(
            parse(CAMPAIGN, &strings(&["--resume", "a.jsonl"]))
                .unwrap()
                .resume
                .as_deref(),
            Some("a.jsonl")
        );
    }

    #[test]
    fn scheme_names_come_from_the_registry() {
        // Every registered scheme parses in every front end that takes
        // one, with no per-command allow-list to fall out of date.
        for s in Scheme::ALL {
            let o = parse(
                RUN,
                &strings(&["--kernel", "strings", "--scheme", s.name()]),
            )
            .unwrap();
            assert_eq!(o.scheme, s.name());
            assert_eq!(
                parse(CAMPAIGN, &strings(&["--scheme", s.name()]))
                    .unwrap()
                    .detection_scheme(),
                s
            );
        }
        let o = parse(
            RUN,
            &strings(&["--kernel", "strings", "--scheme", "emulate"]),
        )
        .unwrap();
        assert_eq!(o.scheme, "emulate");
    }

    #[test]
    fn unknown_scheme_errors_list_the_registry() {
        for parse in [
            parse(RUN, &strings(&["--kernel", "strings", "--scheme", "tmr"])),
            parse(CAMPAIGN, &strings(&["--scheme", "tmr"])),
            parse(EXPLAIN, &with(EXPLAIN, &["--scheme", "tmr"])),
        ] {
            let err = parse
                .err()
                .expect("unknown scheme must be rejected")
                .to_string();
            assert!(err.contains("unknown scheme `tmr`"), "got: {err}");
            for s in Scheme::ALL {
                assert!(err.contains(s.name()), "error must offer {s}: {err}");
            }
        }
        // `emulate` is a run-only pseudo-scheme, not a detection scheme.
        assert!(parse(CAMPAIGN, &strings(&["--scheme", "emulate"])).is_err());
        assert!(parse(EXPLAIN, &with(EXPLAIN, &["--scheme", "emulate"])).is_err());
    }

    #[test]
    fn scheme_prefixes_resolve_when_unambiguous() {
        let o = parse(RUN, &strings(&["--kernel", "strings", "--scheme", "ree"])).unwrap();
        assert_eq!(o.scheme, "reese");
        assert_eq!(
            parse(CAMPAIGN, &strings(&["--scheme", "me"]))
                .unwrap()
                .detection_scheme(),
            Scheme::Meek
        );
        assert_eq!(
            parse(CAMPAIGN, &strings(&["--scheme", "d"]))
                .unwrap()
                .detection_scheme(),
            Scheme::Duplex
        );
    }

    #[test]
    fn retired_shard_command_and_flags_are_unknown() {
        assert!(COMMANDS.iter().all(|c| c.name != "shard"));
        for c in &COMMANDS {
            for flag in ["--intervals", "--warmup", "--no-verify", "--snapshot"] {
                let err = parse(c.cmd, &with(c.cmd, &[flag, "2"]))
                    .err()
                    .unwrap_or_else(|| panic!("{} {flag} must be rejected", c.name))
                    .to_string();
                assert!(err.contains("unknown option"), "{}: {err}", c.name);
            }
        }
    }

    #[test]
    fn ambiguous_names_are_rejected_not_guessed() {
        // The registry's names currently share no prefixes, so drive
        // the resolver directly with a colliding candidate set.
        let err = resolve("scheme", "re", &["reese", "replay"])
            .expect_err("shared prefix must be ambiguous")
            .to_string();
        assert!(err.contains("ambiguous scheme `re`"), "got: {err}");
        assert!(
            err.contains("reese") && err.contains("replay"),
            "got: {err}"
        );
        // The empty string prefixes everything; it must never resolve.
        assert!(resolve("scheme", "", &["reese", "replay"]).is_err());
        // Exact names win even when they prefix a longer candidate.
        assert_eq!(
            resolve("scheme", "reese", &["reese", "reese2"]).unwrap(),
            "reese"
        );
    }

    #[test]
    fn schemes_options_parse() {
        let o = parse(
            SCHEMES,
            &strings(&[
                "--kernel", "strings", "--trials", "7", "--seed", "3", "-j", "2", "--engine",
                "full", "--csv", "s.csv", "--json", "s.json",
            ]),
        )
        .unwrap();
        assert_eq!(o.suite.len(), 1);
        assert_eq!(o.suite[0].0, "strings");
        assert_eq!(o.eval.trials, 7);
        assert_eq!(o.eval.seed, 3);
        assert_eq!(o.eval.jobs, 2);
        assert_eq!(o.eval.engine, reese::faults::TrialEngine::Full);
        assert_eq!(o.csv.as_deref(), Some("s.csv"));
        assert_eq!(o.json.as_deref(), Some("s.json"));
        // No kernel filter → the whole suite, in registry order.
        let all = parse(SCHEMES, &[]).unwrap();
        assert_eq!(all.suite.len(), Kernel::ALL.len());
        assert!(parse(SCHEMES, &strings(&["--scale", "2", "--target", "100"])).is_err());
        assert!(parse(SCHEMES, &strings(&["--trials", "0"])).is_err());
    }

    #[test]
    fn observability_flags_parse_on_campaign_and_schemes() {
        let o = parse(CAMPAIGN, &strings(&["--telemetry-out", "tele.jsonl"])).unwrap();
        assert_eq!(
            o.eval.telemetry_out.as_deref(),
            Some(std::path::Path::new("tele.jsonl"))
        );
        let o = parse(
            SCHEMES,
            &strings(&[
                "--kernel",
                "lisp",
                "--telemetry-out",
                "tele.jsonl",
                "--trace-out",
                "trace.json",
                "--metrics-out",
                "metrics.csv",
                "--metrics-interval",
                "500",
            ]),
        )
        .unwrap();
        assert_eq!(
            o.eval.telemetry_out.as_deref(),
            Some(std::path::Path::new("tele.jsonl"))
        );
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.csv"));
        assert_eq!(o.metrics_interval, 500);
        assert!(parse(SCHEMES, &strings(&["--metrics-interval", "0"])).is_err());
    }

    #[test]
    fn explain_options_parse() {
        let o = parse(
            EXPLAIN,
            &strings(&[
                "--outcomes",
                "camp.jsonl",
                "--trial",
                "17",
                "--kernel",
                "database",
                "--scheme",
                "duplex",
                "--out",
                "story.txt",
                "--trace-out",
                "story.json",
            ]),
        )
        .unwrap();
        assert_eq!(o.outcomes.as_deref(), Some("camp.jsonl"));
        assert_eq!(o.which, Some(reese::faults::TrialRef::Index(17)));
        assert_eq!(o.detection_scheme(), Scheme::Duplex);
        assert_eq!(o.out.as_deref(), Some("story.txt"));
        assert_eq!(o.trace_out.as_deref(), Some("story.json"));
        assert!(!o.program().is_empty());
        // Stable ids parse in decimal and hex.
        let o = parse(
            EXPLAIN,
            &strings(&["--outcomes", "c.jsonl", "--id", "0xFA017"]),
        )
        .unwrap();
        assert_eq!(o.which, Some(reese::faults::TrialRef::Id(0xFA017)));
        let o = parse(
            EXPLAIN,
            &strings(&["--outcomes", "c.jsonl", "--id", "12345"]),
        )
        .unwrap();
        assert_eq!(o.which, Some(reese::faults::TrialRef::Id(12345)));
    }

    #[test]
    fn explain_requires_an_outcomes_log_and_a_trial_address() {
        let err = parse(EXPLAIN, &strings(&["--trial", "1"]))
            .err()
            .expect("missing --outcomes must be rejected")
            .to_string();
        assert!(err.contains("--outcomes"), "got: {err}");
        let err = parse(EXPLAIN, &strings(&["--outcomes", "c.jsonl"]))
            .err()
            .expect("missing trial address must be rejected")
            .to_string();
        assert!(
            err.contains("--trial") && err.contains("--id"),
            "got: {err}"
        );
    }

    #[test]
    fn isa_names_come_from_the_registry() {
        // Every registered ISA parses in every front end that loads a
        // program, in either flag order relative to --kernel.
        for isa in IsaId::ALL {
            let kernel = "lisp"; // in both catalogues
            let o = parse(RUN, &strings(&["--isa", isa.name(), "--kernel", kernel])).unwrap();
            assert_eq!(o.program().isa(), isa);
            let o = parse(RUN, &strings(&["--kernel", kernel, "--isa", isa.name()])).unwrap();
            assert_eq!(o.program().isa(), isa, "--kernel before --isa must work");
            assert_eq!(
                parse(CAMPAIGN, &strings(&["--isa", isa.name()]))
                    .unwrap()
                    .program()
                    .isa(),
                isa,
                "default kernel must load under the selected ISA"
            );
            let o = parse(
                EXPLAIN,
                &strings(&["--outcomes", "c.jsonl", "--trial", "0", "--isa", isa.name()]),
            )
            .unwrap();
            assert_eq!(o.program().isa(), isa);
        }
        // Unambiguous prefixes resolve; unknown names list the registry.
        let o = parse(RUN, &strings(&["--kernel", "lisp", "--isa", "rv"])).unwrap();
        assert_eq!(o.program().isa(), IsaId::Rv32i);
        let err = parse(RUN, &strings(&["--kernel", "lisp", "--isa", "arm"]))
            .err()
            .expect("unknown isa must be rejected")
            .to_string();
        assert!(err.contains("unknown isa `arm`"), "got: {err}");
        for isa in IsaId::ALL {
            assert!(err.contains(isa.name()), "error must offer {isa}: {err}");
        }
    }

    #[test]
    fn rv32i_kernels_resolve_against_the_port_catalogue() {
        // `gcc` exists in the Table 2 suite but has no rv32i port; the
        // error names the ports that do exist.
        let err = parse(CAMPAIGN, &strings(&["--isa", "rv32i", "--kernel", "gcc"]))
            .err()
            .expect("unported kernel must be rejected")
            .to_string();
        assert!(err.contains("no rv32i port"), "got: {err}");
        assert!(err.contains("imaging|lisp|strings"), "got: {err}");
        // The ports themselves load and carry the rv32i stamp.
        for k in Rv32Kernel::ALL {
            let o = parse(
                CAMPAIGN,
                &strings(&["--isa", "rv32i", "--kernel", k.name()]),
            )
            .unwrap();
            assert_eq!(o.program().isa(), IsaId::Rv32i);
            assert_eq!(o.program().inst_size(), 4);
        }
    }

    #[test]
    fn schemes_isa_selects_the_kernel_catalogue() {
        let o = parse(SCHEMES, &strings(&["--isa", "rv32i"])).unwrap();
        assert_eq!(o.suite.len(), Rv32Kernel::ALL.len());
        for (name, program) in &o.suite {
            assert_eq!(program.isa(), IsaId::Rv32i, "kernel {name}");
        }
        // --target calibration only exists for the native suite.
        let err = parse(SCHEMES, &strings(&["--isa", "rv32i", "--target", "100000"]))
            .err()
            .expect("--target under rv32i must be rejected")
            .to_string();
        assert!(
            err.contains("--target") && err.contains("--scale"),
            "got: {err}"
        );
    }

    #[test]
    fn flat_binaries_load_through_the_isa_frontend() {
        let frontend = IsaId::Rv32i.frontend();
        let program = frontend
            .assemble("  li a0, 7\n  li a7, 93\n  ecall\n")
            .unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("reese-cli-test-{}.bin", std::process::id()));
        std::fs::write(&path, program.text_image().unwrap()).unwrap();
        let o = parse(RUN, &strings(&["--isa", "rv32i", path.to_str().unwrap()])).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(o.program().isa(), IsaId::Rv32i);
        assert_eq!(o.program().text(), program.text());
        // A native loader would mis-chunk the 4-byte words; the flag
        // must reject garbage rather than mis-decode it.
        let path = dir.join(format!("reese-cli-test-native-{}.bin", std::process::id()));
        std::fs::write(&path, [0xFFu8; 8]).unwrap();
        let err = parse(RUN, &strings(&[path.to_str().unwrap()]))
            .err()
            .expect("garbage flat binary must be rejected")
            .to_string();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("byte offset"), "got: {err}");
    }

    #[test]
    fn flat_binary_errors_name_the_byte_offset() {
        let dir = std::env::temp_dir();
        for isa in IsaId::ALL {
            let program = isa
                .frontend()
                .assemble("  li a0, 1\n  li a0, 2\n  li a0, 3\n  li a0, 4\n  li a0, 5\n")
                .unwrap();
            let image = program.text_image().unwrap();
            let size = isa.inst_size() as usize;
            let path = dir.join(format!(
                "reese-cli-{}-{}.bin",
                isa.name(),
                std::process::id()
            ));
            let load = |bytes: &[u8]| {
                std::fs::write(&path, bytes).unwrap();
                let args = strings(&["--isa", isa.name(), path.to_str().unwrap()]);
                parse(RUN, &args).err().expect("bad image").to_string()
            };
            // A corrupt fourth instruction sits at byte 3 × size.
            let mut corrupt = image.clone();
            corrupt[3 * size..4 * size].fill(0xFF);
            let err = load(&corrupt);
            assert!(
                err.contains(&format!("byte offset {}:", 3 * size)),
                "{isa}: {err}"
            );
            // A partial last instruction is named as such, at its start.
            let ragged = &image[..image.len() - 1];
            let err = load(ragged);
            std::fs::remove_file(&path).ok();
            let want = format!(
                "byte offset {}: text image of {} bytes ends mid-instruction",
                image.len() - size,
                ragged.len()
            );
            assert!(err.ends_with(&want), "{isa}: {err}");
        }
    }

    #[test]
    fn asm_writes_a_flat_binary_the_loader_accepts() {
        let dir = std::env::temp_dir();
        let src = dir.join(format!("reese-asm-test-{}.s", std::process::id()));
        let bin = dir.join(format!("reese-asm-test-{}.bin", std::process::id()));
        std::fs::write(&src, "  li a0, 5\n  li a7, 93\n  ecall\n").unwrap();
        parse(
            ASM,
            &strings(&[
                src.to_str().unwrap(),
                "--isa",
                "rv32i",
                "-o",
                bin.to_str().unwrap(),
            ]),
        )
        .and_then(cmd_asm)
        .unwrap();
        let o = parse(RUN, &strings(&["--isa", "rv32i", bin.to_str().unwrap()]));
        std::fs::remove_file(&src).ok();
        let o = o.unwrap();
        assert_eq!(o.program().isa(), IsaId::Rv32i);
        assert_eq!(o.program().len(), 3);
        // The output path is mandatory — a silent default would make
        // CI scripts guess where the binary landed.
        let err = parse(ASM, &strings(&[bin.to_str().unwrap()]))
            .and_then(cmd_asm)
            .expect_err("missing -o must be rejected")
            .to_string();
        std::fs::remove_file(&bin).ok();
        assert!(err.contains("-o"), "got: {err}");
    }

    #[test]
    fn missing_program_is_an_error() {
        assert!(parse(RUN, &[]).is_err());
        let args = vec!["--scheme".to_string(), "reese".to_string()];
        assert!(parse(RUN, &args).is_err());
    }

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn zero_metrics_interval_is_rejected_at_parse_time() {
        let err = parse(
            RUN,
            &strings(&["--kernel", "strings", "--metrics-interval", "0"]),
        )
        .err()
        .expect("zero interval must be rejected")
        .to_string();
        assert!(err.contains("--metrics-interval"), "got: {err}");
        assert!(err.contains("at least 1"), "got: {err}");
        assert!(parse(CAMPAIGN, &strings(&["--metrics-interval", "0"])).is_err());
        assert!(parse(SCHEMES, &strings(&["--metrics-interval", "0"])).is_err());
    }

    #[test]
    fn zero_jobs_is_rejected_at_parse_time() {
        for flag in ["-j", "--jobs"] {
            let err = parse(CAMPAIGN, &strings(&[flag, "0"]))
                .err()
                .expect("zero jobs must be rejected")
                .to_string();
            assert!(err.contains(flag), "got: {err}");
            assert!(parse(SCHEMES, &strings(&[flag, "0"])).is_err());
        }
    }

    #[test]
    fn zero_machine_geometry_is_rejected_at_parse_time() {
        // A zero here used to survive parsing and blow up as an
        // `assert!` inside `Ruu::with_scheduler` / `Lsq::new`; all
        // three front ends must reject it with the flag name instead.
        for flag in ["--ruu-size", "--lsq-size", "--width"] {
            let err = parse(RUN, &strings(&["--kernel", "strings", flag, "0"]))
                .err()
                .expect("zero geometry must be rejected")
                .to_string();
            assert!(err.contains(flag), "got: {err}");
            assert!(err.contains("at least 1"), "got: {err}");
            assert!(parse(CAMPAIGN, &strings(&[flag, "0"])).is_err());
            assert!(parse(EXPLAIN, &with(EXPLAIN, &[flag, "0"])).is_err());
        }
        // The REESE knobs used to panic inside `ReeseConfig::validate`.
        for flag in ["--rqueue", "--dup-period"] {
            let err = parse(RUN, &strings(&["--kernel", "strings", flag, "0"]))
                .err()
                .expect("zero REESE knob must be rejected")
                .to_string();
            assert!(err.contains(flag), "got: {err}");
            assert!(err.contains("at least 1"), "got: {err}");
        }
    }

    #[test]
    fn duplex_at_width_one_is_rejected_on_every_subcommand() {
        // Pairs dispatch and commit `width / 2` at a time: at width 1
        // the machine used to stall until the deadlock detector fired.
        fn assert_names_duplex_width(err: Option<CliError>) {
            let err = err.expect("duplex at width 1 must be rejected").to_string();
            assert!(
                err.contains("duplex") && err.contains("--width"),
                "got: {err}"
            );
        }
        let duplex = ["--scheme", "duplex", "--width", "1"];
        let mut run_args = vec!["--kernel", "strings"];
        run_args.extend(duplex);
        assert_names_duplex_width(parse(RUN, &strings(&run_args)).err());
        assert_names_duplex_width(parse(CAMPAIGN, &strings(&duplex)).err());
        let mut explain_args = vec!["--outcomes", "log.jsonl", "--trial", "0"];
        explain_args.extend(duplex);
        assert_names_duplex_width(parse(EXPLAIN, &strings(&explain_args)).err());
        // The ranking always includes duplex.
        let schemes = parse(SCHEMES, &strings(&["--kernel", "strings", "--width", "1"]));
        assert_names_duplex_width(schemes.err());
        // Other schemes still run single-width machines.
        let mut reese_args = vec!["--kernel", "strings", "--scheme", "reese", "--width", "1"];
        assert!(parse(RUN, &strings(&reese_args)).is_ok());
        reese_args[3] = "baseline";
        assert!(parse(RUN, &strings(&reese_args)).is_ok());
        assert!(parse(CAMPAIGN, &strings(&["--width", "1"])).is_ok());
    }

    #[test]
    fn lsq_exceeding_ruu_is_rejected_at_parse_time() {
        let err = parse(
            RUN,
            &strings(&["--kernel", "strings", "--ruu-size", "8", "--lsq-size", "16"]),
        )
        .err()
        .expect("LSQ > RUU must be rejected")
        .to_string();
        assert!(err.contains("--lsq-size"), "got: {err}");
        assert!(parse(CAMPAIGN, &strings(&["--ruu-size", "8", "--lsq-size", "16"])).is_err());
        let lsq_over_ruu = ["--ruu-size", "8", "--lsq-size", "16"];
        assert!(parse(EXPLAIN, &with(EXPLAIN, &lsq_over_ruu)).is_err());
        // Valid overrides land in the config.
        let o = parse(
            RUN,
            &strings(&[
                "--kernel",
                "strings",
                "--ruu-size",
                "64",
                "--lsq-size",
                "32",
                "--width",
                "4",
            ]),
        )
        .unwrap();
        assert_eq!(
            (o.base.ruu_size, o.base.lsq_size, o.base.width),
            (64, 32, 4)
        );
    }

    #[test]
    fn non_numeric_positive_flags_report_the_flag_name() {
        let err = parse(CAMPAIGN, &strings(&["--jobs", "many"]))
            .err()
            .expect("non-numeric jobs must be rejected")
            .to_string();
        assert!(err.contains("--jobs") && err.contains("many"), "got: {err}");
        // Valid positive values still parse.
        let o = parse(
            CAMPAIGN,
            &strings(&["--jobs", "3", "--metrics-interval", "1"]),
        )
        .unwrap();
        assert_eq!(o.eval.jobs, 3);
        assert_eq!(o.metrics_interval, 1);
    }
}
