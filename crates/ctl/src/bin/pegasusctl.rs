//! CLI client for `pegasusd`.
//!
//! ```text
//! pegasusctl --socket <path> <verb> [args]
//!
//! verbs:
//!   ping
//!   load <name> (--file <artifact.pa> | --net mlp-b [--seed N])
//!   attach <tenant> <artifact> [--dst-port N] [--src-port N] [--proto N]
//!          [--record] [--flow-capacity N] [--idle-timeout N]
//!   swap <tenant> <artifact>
//!   detach <tenant>
//!   list
//!   stats
//!   ingest-pcap <path>
//!   shutdown
//! ```
//!
//! Exit status: 0 on success, 1 when the daemon answered with a typed
//! error, 2 on usage errors, 3 when the daemon is unreachable.

use pegasus_ctl::build::compile_mlp_b;
use pegasus_ctl::client::{expect_ok, CtlClient};
use pegasus_ctl::protocol::{Request, Response, TenantState, WireTenantConfig};
use pegasus_net::RoutePredicate;
use std::process::ExitCode;

const USAGE: &str = "usage: pegasusctl [--socket <path>] <ping|load|attach|swap|detach|list|stats|ingest-pcap|shutdown> [args]";

struct Args {
    socket: String,
    verb: String,
    rest: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut socket = "pegasusd.sock".to_string();
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--socket") {
        argv.next();
        socket = argv.next().ok_or_else(|| format!("--socket needs a value\n{USAGE}"))?;
    }
    let verb = argv.next().ok_or_else(|| USAGE.to_string())?;
    Ok(Args { socket, verb, rest: argv.collect() })
}

/// Pulls `--flag value` out of `rest`, leaving positionals in place.
fn take_flag(rest: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = rest.iter().position(|a| a == flag) {
        if pos + 1 >= rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = rest.remove(pos + 1);
        rest.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pulls a bare `--flag` out of `rest`.
fn take_switch(rest: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = rest.iter().position(|a| a == flag) {
        rest.remove(pos);
        true
    } else {
        false
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn build_request(verb: &str, mut rest: Vec<String>) -> Result<Request, String> {
    let request = match verb {
        "ping" => Request::Ping,
        "load" => {
            let file = take_flag(&mut rest, "--file")?;
            let net = take_flag(&mut rest, "--net")?;
            let seed = take_flag(&mut rest, "--seed")?;
            let [name] = positionals::<1>("load <name>", rest)?;
            let artifact = match (file, net) {
                (Some(path), None) => std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?,
                (None, Some(net)) if net == "mlp-b" => {
                    let seed = match seed {
                        Some(s) => parse_num("--seed", &s)?,
                        None => 7,
                    };
                    eprintln!("pegasusctl: training + compiling mlp-b (seed {seed})...");
                    compile_mlp_b(seed).map_err(|e| format!("compile: {e}"))?.to_bytes()
                }
                (None, Some(net)) => return Err(format!("unknown --net '{net}' (try mlp-b)")),
                _ => return Err("load needs exactly one of --file <path> or --net mlp-b".into()),
            };
            Request::Load { name, artifact }
        }
        "attach" => {
            let mut route = RoutePredicate::Any;
            let mut clauses: Vec<RoutePredicate> = Vec::new();
            if let Some(v) = take_flag(&mut rest, "--dst-port")? {
                clauses.push(RoutePredicate::DstPort(parse_num("--dst-port", &v)?));
            }
            if let Some(v) = take_flag(&mut rest, "--src-port")? {
                clauses.push(RoutePredicate::SrcPort(parse_num("--src-port", &v)?));
            }
            if let Some(v) = take_flag(&mut rest, "--proto")? {
                clauses.push(RoutePredicate::Protocol(parse_num("--proto", &v)?));
            }
            match clauses.len() {
                0 => {}
                1 => route = clauses.pop().expect("one clause"),
                _ => route = RoutePredicate::AllOf(clauses),
            }
            let record = take_switch(&mut rest, "--record");
            let flow_capacity = take_flag(&mut rest, "--flow-capacity")?
                .map(|v| parse_num("--flow-capacity", &v))
                .transpose()?;
            let idle_timeout_packets = take_flag(&mut rest, "--idle-timeout")?
                .map(|v| parse_num("--idle-timeout", &v))
                .transpose()?;
            let [tenant, artifact] = positionals::<2>("attach <tenant> <artifact>", rest)?;
            Request::Attach {
                tenant,
                artifact,
                config: WireTenantConfig {
                    route,
                    record_predictions: record,
                    flow_capacity,
                    idle_timeout_packets,
                },
            }
        }
        "swap" => {
            let [tenant, artifact] = positionals::<2>("swap <tenant> <artifact>", rest)?;
            Request::Swap { tenant, artifact }
        }
        "detach" => {
            let [tenant] = positionals::<1>("detach <tenant>", rest)?;
            Request::Detach { tenant }
        }
        "list" => Request::List,
        "stats" => Request::Stats,
        "ingest-pcap" => {
            let [path] = positionals::<1>("ingest-pcap <path>", rest)?;
            Request::IngestPcap { path }
        }
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown verb '{other}'\n{USAGE}")),
    };
    Ok(request)
}

fn positionals<const N: usize>(shape: &str, rest: Vec<String>) -> Result<[String; N], String> {
    <[String; N]>::try_from(rest)
        .map_err(|got| format!("expected {shape}, got {} positional argument(s)", got.len()))
}

fn print_response(response: &Response) {
    match response {
        Response::Pong => println!("pong"),
        Response::Error(e) => println!("error [{}]: {}", e.kind, e.message),
        Response::Loaded(a) => {
            println!("loaded {} v{} ({}, {}, {} bytes)", a.name, a.version, a.net, a.kind, a.bytes);
        }
        Response::Attached { tenant, token, epoch } => {
            println!("attached {tenant} (token {token}, epoch {epoch})");
        }
        Response::Swapped { tenant, epoch, state_retained, apply_micros } => {
            println!(
                "swapped {tenant} to epoch {epoch} in {apply_micros} us ({})",
                if *state_retained { "flow state retained in place" } else { "flows re-warm" }
            );
        }
        Response::Detached(report) => match (&report.report, &report.error) {
            (Some(r), _) => println!(
                "detached {}: {} routed, {} classified, {} flows",
                report.name, report.routed_packets, r.classified, r.flows
            ),
            (None, Some(e)) => println!("detached {} (was degraded: {e})", report.name),
            (None, None) => println!("detached {}", report.name),
        },
        Response::Listing(listing) => {
            println!("artifacts ({}):", listing.artifacts.len());
            for a in &listing.artifacts {
                println!("  {} v{} ({}, {}, {} bytes)", a.name, a.version, a.net, a.kind, a.bytes);
            }
            println!("tenants ({}):", listing.tenants.len());
            for t in &listing.tenants {
                let r = &t.route;
                let route = format!(
                    "route[lut {} subnets {} protos {}{} residual {}]",
                    r.lut_ports,
                    r.subnets,
                    r.protocols,
                    if r.catch_all { " catch-all" } else { "" },
                    r.residual
                );
                match &t.state {
                    TenantState::Serving { token, epoch } => println!(
                        "  {} -> {} serving (token {token}, epoch {epoch}) {route}",
                        t.name, t.artifact
                    ),
                    TenantState::Degraded { reason } => {
                        println!("  {} -> {} DEGRADED: {reason} {route}", t.name, t.artifact);
                    }
                }
            }
        }
        Response::Stats(stats) => {
            println!("unrouted {} | parse errors: {}", stats.unrouted, stats.parse_errors.total());
            let r = &stats.routing;
            println!(
                "routing: lut {} trie {} proto {} catch-all {} residual {} (scanned {}) | \
                 rebuilds {} (last {} us)",
                r.lut_hits,
                r.trie_hits,
                r.proto_hits,
                r.catchall_hits,
                r.residual_hits,
                r.residual_scans,
                r.rebuilds,
                r.last_rebuild_micros
            );
            let a = &stats.artifacts;
            println!(
                "artifacts: {} tenants share {} unique ({} resident bytes, {} if copied)",
                a.tenants, a.unique_artifacts, a.resident_bytes, a.naive_bytes
            );
            for t in &stats.tenants {
                println!(
                    "  {} (token {}, epoch {}): routed {} packets {} classified {} warmup {} flows {}{}",
                    t.name,
                    t.token.id(),
                    t.epoch,
                    t.routed_packets,
                    t.report.packets,
                    t.report.classified,
                    t.report.warmup,
                    t.report.flows,
                    if t.failed { " FAILED" } else { "" }
                );
            }
        }
        Response::Ingested { frames } => println!("ingested {frames} frames"),
        Response::ShuttingDown => println!("daemon shutting down"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pegasusctl: {message}");
            return ExitCode::from(2);
        }
    };
    let request = match build_request(&args.verb, args.rest) {
        Ok(request) => request,
        Err(message) => {
            eprintln!("pegasusctl: {message}");
            return ExitCode::from(2);
        }
    };
    let mut client = match CtlClient::connect(&args.socket) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("pegasusctl: {e}");
            return ExitCode::from(3);
        }
    };
    match client.call(&request) {
        Ok(response) => {
            let failed = matches!(response, Response::Error(_));
            print_response(&response);
            let _ = expect_ok(response);
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("pegasusctl: {e}");
            ExitCode::from(3)
        }
    }
}
