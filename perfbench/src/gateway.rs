//! The `gateway-loopback` workload: an in-process [`Gateway`] over the live
//! cluster, driven as a closed loop over loopback keep-alive connections.
//!
//! Each client sends its next request only after the previous response
//! arrived. Requests are `mixed_workload` requests with the arrival offset
//! cleared (the loop, not a schedule, paces them); the cluster runs at
//! [`TIME_SCALE`] so their emulated execution lasts 1–5 ms and the request
//! path, not the function, sets the latency. Each request leaves the client
//! as one write on a `TCP_NODELAY` socket, as ordinary HTTP clients send.

use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::stats::{median, Tail};
use libra_gateway::http::Conn;
use libra_gateway::server::{Gateway, GatewayConfig, GatewayReport};
use libra_gateway::tenant::TenantQuota;
use libra_gateway::wire::{self, WireRecord};
use libra_live::{mixed_workload, LiveConfig, LiveRequest};
use std::io::{Cursor, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Workload milliseconds per real millisecond in the live cluster.
const TIME_SCALE: f64 = 400.0;
/// Distinct requests generated from the seed; the loop cycles through them.
const POOL: usize = 4_096;
/// Deployed functions (`mixed_workload` uses ids 0..8).
const FUNCS: usize = 8;
const TENANT: &str = "bench";
/// Gateway start-ups timed per run at the least, so `setup_s` is a median.
const MIN_SETUPS: usize = 5;
/// Start-ups continue for this long, so a fast start-up is timed often.
const SETUP_SAMPLING: Duration = Duration::from_millis(300);
/// Requests per batch in the in-memory parse/codec timings.
const CODEC_BATCH: usize = 1_000;

/// Client connections (and client threads): two, or fewer on a smaller host.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn config() -> GatewayConfig {
    GatewayConfig {
        workers: 4,
        admission_capacity: 64,
        max_funcs: FUNCS,
        tenants: vec![TenantQuota::generous(TENANT)],
        live: LiveConfig {
            time_scale: TIME_SCALE,
            quantum: Duration::from_millis(1),
            ..LiveConfig::default()
        },
        drain_grace: Duration::from_secs(10),
        ..GatewayConfig::default()
    }
}

/// The seeded request pool.
fn requests(seed: u64) -> Vec<LiveRequest> {
    let mut pool = mixed_workload(POOL, seed);
    for r in &mut pool {
        r.at_ms = 0;
    }
    pool
}

/// The bytes of one invoke request, head and body together.
fn request_bytes(idx: usize, req: &LiveRequest) -> Vec<u8> {
    let body = wire::encode_invoke(idx, req);
    format!(
        "POST /invoke/{TENANT}/{} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        req.func,
        body.len()
    )
    .into_bytes()
}

struct Client {
    conn: Conn<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { conn: Conn::new(stream) })
    }

    /// Send `bytes` as one write and wait for the response.
    fn call(&mut self, bytes: &[u8]) -> Result<(u16, String), String> {
        self.conn.stream().write_all(bytes).map_err(|e| format!("send: {e}"))?;
        let resp = self.conn.recv_response().map_err(|e| format!("receive: {e}"))?;
        Ok((resp.status, String::from_utf8_lossy(&resp.body).into_owned()))
    }

    fn metrics(&mut self) -> Result<String, String> {
        let get = b"GET /metrics HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
        match self.call(get)? {
            (200, page) => Ok(page),
            (status, _) => Err(format!("/metrics answered {status}")),
        }
    }
}

/// One answered request.
struct Sample {
    idx: usize,
    client_ms: f64,
    record: WireRecord,
}

/// One phase of closed-loop load.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    samples: Vec<Sample>,
    sent: u64,
    failures: Vec<String>,
}

fn load(clients: &mut [Client], pool: &[LiveRequest], next: &AtomicU64, seconds: f64) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let (mut samples, mut sent, mut failures) = (Vec::new(), 0u64, Vec::new());
                    while Instant::now() < deadline {
                        let idx = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let bytes = request_bytes(idx, &pool[idx % pool.len()]);
                        sent += 1;
                        let t = Instant::now();
                        let answer = client.call(&bytes);
                        let client_ms = t.elapsed().as_secs_f64() * 1e3;
                        match answer {
                            Ok((200, body)) => match wire::decode_record(&body) {
                                Ok(record) if record.idx == idx as u64 => {
                                    samples.push(Sample { idx, client_ms, record });
                                }
                                Ok(record) => failures
                                    .push(format!("request {idx} answered as {}", record.idx)),
                                Err(why) => failures.push(format!("request {idx}: {why}")),
                            },
                            Ok((status, body)) => {
                                failures.push(format!("request {idx}: {status} {}", body.trim()))
                            }
                            Err(why) => {
                                failures.push(format!("request {idx}: {why}"));
                                break;
                            }
                        }
                    }
                    (samples, sent, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| (Vec::new(), 0, vec!["client panicked".into()])))
            .collect()
    });
    let mut phase = Phase { wall_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    for (samples, sent, failures) in per_client {
        phase.samples.extend(samples);
        phase.sent += sent;
        phase.failures.extend(failures);
    }
    phase
}

fn start() -> std::io::Result<(Gateway, Vec<Client>)> {
    let gw = Gateway::start(config())?;
    let clients = (0..connections())
        .map(|_| Client::connect(gw.local_addr()))
        .collect::<std::io::Result<Vec<_>>>();
    match clients {
        Ok(clients) => Ok((gw, clients)),
        Err(e) => {
            gw.shutdown();
            Err(e)
        }
    }
}

/// A counter from the metrics page (`name` includes any labels).
fn counter(page: &str, name: &str) -> Option<f64> {
    page.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

fn tenant_counter(page: &str, outcome: &str) -> Option<f64> {
    counter(
        page,
        &format!("libra_gateway_requests_total{{tenant=\"{TENANT}\",outcome=\"{outcome}\"}}"),
    )
}

/// Median per-item time in µs of `f` over `items`, batch timed five times.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for it in items {
                f(std::hint::black_box(it));
            }
            t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .collect();
    median(&times)
}

/// Timings of the HTTP parser and the wire codec over the workload's own
/// bytes, held in memory.
fn codec_metrics(out: &mut Outcome, pool: &[LiveRequest], records: &[WireRecord]) {
    let batch: Vec<(usize, &LiveRequest)> = pool.iter().enumerate().take(CODEC_BATCH).collect();
    let stream: Vec<u8> = batch.iter().flat_map(|&(i, r)| request_bytes(i, r)).collect();
    let mut times = Vec::new();
    for _ in 0..5 {
        let mut conn = Conn::new(Cursor::new(stream.clone()));
        let t = Instant::now();
        let mut parsed = 0usize;
        while conn.recv_request().is_ok() {
            parsed += 1;
        }
        times.push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        if parsed != batch.len() {
            out.problems.push(format!("parsed {parsed} of {} requests", batch.len()));
        }
    }
    out.set("http.parse_us", median(&times));
    let bodies: Vec<(String, u32)> =
        batch.iter().map(|&(i, r)| (wire::encode_invoke(i, r), r.func)).collect();
    let mut bad = 0;
    out.set(
        "wire.decode_invoke_us",
        per_item_us(&bodies, |(b, f)| bad += usize::from(wire::decode_invoke(b, *f).is_err())),
    );
    if bad != 0 {
        out.problems.push(format!("{bad} request bodies failed to decode"));
    }
    let records: Vec<WireRecord> = records.iter().take(CODEC_BATCH).copied().collect();
    out.set(
        "wire.encode_record_us",
        per_item_us(&records, |r| {
            std::hint::black_box(wire::encode_record(r));
        }),
    );
}

/// Workload µs of the live cluster as real ms.
fn real_ms(workload_us: u64) -> f64 {
    workload_us as f64 / TIME_SCALE / 1e3
}

/// Run the workload for `seconds` (traced: half bare, half with the
/// per-layer scrapes, then the in-memory parse and codec timings).
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let pool = requests(seed);
    // Start (and stop) the gateway repeatedly; the last one serves the load.
    let mut setups = Vec::new();
    let sampling = Instant::now();
    let (gw, mut clients) = loop {
        let t = Instant::now();
        match start() {
            Ok((gw, clients)) => {
                setups.push(t.elapsed().as_secs_f64());
                if setups.len() >= MIN_SETUPS && sampling.elapsed() >= SETUP_SAMPLING {
                    break (gw, clients);
                }
                drop(clients);
                gw.shutdown();
            }
            Err(e) => {
                out.problems.push(format!("gateway start: {e}"));
                return out;
            }
        }
    };
    let next = AtomicU64::new(0);
    reset_peak_rss();
    let (bare, phase, before, after) = if traced {
        let bare = load(&mut clients, &pool, &next, seconds / 2.0);
        let before = clients[0].metrics();
        let phase = load(&mut clients, &pool, &next, seconds / 2.0);
        let after = clients[0].metrics();
        (Some(bare), phase, Some(before), after)
    } else {
        let phase = load(&mut clients, &pool, &next, seconds);
        let after = clients[0].metrics();
        (None, phase, None, after)
    };
    let rss = peak_rss_mb();
    let sent = phase.sent + bare.as_ref().map_or(0, |b| b.sent);
    let ok = phase.samples.len() + bare.as_ref().map_or(0, |b| b.samples.len());
    out.attempted = sent;
    out.failed = sent - ok as u64;
    out.problems
        .extend(phase.failures.iter().chain(bare.iter().flat_map(|b| &b.failures)).cloned());

    // The gateway must have admitted and completed exactly what it answered.
    match &after {
        Ok(page) => {
            for outcome in ["admitted", "completed"] {
                let v = tenant_counter(page, outcome);
                if v != Some(ok as f64) {
                    out.problems.push(format!("/metrics {outcome} = {v:?}, {ok} answered"));
                }
            }
        }
        Err(why) => out.problems.push(format!("metrics scrape: {why}")),
    }
    if let Err(why) = gw.conservation_report() {
        out.problems.push(format!("conservation: {why}"));
    }
    drop(clients);
    let report: GatewayReport = gw.shutdown();
    if report.live.records.len() != ok || report.live.aborted != 0 {
        out.problems.push(format!(
            "cluster holds {} records ({} aborted), {ok} answered",
            report.live.records.len(),
            report.live.aborted
        ));
    }

    let client_ms: Vec<f64> = phase.samples.iter().map(|s| s.client_ms).collect();
    let lat = Tail::of(&client_ms, 99.0);
    out.notes.push(format!(
        "{} connections, {sent} requests; latency p50 and p{} over {} samples",
        connections(),
        lat.tail_p,
        lat.n
    ));
    let rate = |p: &Phase| p.samples.len() as f64 / p.wall_s;
    if let (Some(bare), Some(Ok(before)), Ok(after)) = (&bare, &before, &after) {
        out.set("trace.overhead_ratio", rate(&phase) / rate(bare));
        let delta = |name: &str| Some(counter(after, name)? - counter(before, name)?);
        let frontend = delta("libra_gateway_stage_micros_total{stage=\"frontend\"}");
        let done = tenant_counter(after, "completed")
            .zip(tenant_counter(before, "completed"))
            .map(|(a, b)| a - b);
        if let (Some(us), Some(n)) = (frontend, done) {
            out.set("gateway.frontend_us_per_req", us / n.max(1.0));
        }
        out.set(
            "controlplane.loans_expired",
            delta("libra_live_loans_expired_total").unwrap_or(0.0),
        );
        out.set(
            "controlplane.safeguard_releases",
            delta("libra_live_safeguard_releases_total").unwrap_or(0.0),
        );
        let sched: Vec<f64> = phase.samples.iter().map(|s| real_ms(s.record.sched_us)).collect();
        let exec: Vec<f64> = phase
            .samples
            .iter()
            .map(|s| real_ms(s.record.latency_us.saturating_sub(s.record.sched_us)))
            .collect();
        let outside: Vec<f64> =
            phase.samples.iter().map(|s| s.client_ms - real_ms(s.record.latency_us)).collect();
        out.set("live.sched_ms_p50", median(&sched));
        out.set("live.exec_ms_p50", median(&exec));
        out.set("gateway.outside_cluster_ms_p50", median(&outside));
        let records: Vec<WireRecord> = phase.samples.iter().map(|s| s.record).collect();
        codec_metrics(&mut out, &pool, &records);
        return out;
    }
    if traced {
        out.problems.push("traced phase lacks its metrics scrapes".into());
        return out;
    }

    out.set("inv_per_s", rate(&phase));
    out.set("latency_p50_ms", lat.p50);
    out.set("latency_p99_ms", lat.tail);
    let ratios: Vec<f64> = report
        .live
        .records
        .iter()
        .filter(|r| r.baseline_exec_ms > 0.0)
        .map(|r| r.latency_ms / r.baseline_exec_ms)
        .collect();
    out.set("latency_ratio_mean", ratios.iter().sum::<f64>() / ratios.len().max(1) as f64);
    // Eq. 2 over the measured window: CPU work the cluster completed over
    // its capacity for that time (work is in workload millicore-ms).
    let cfg = config().live;
    let work: f64 =
        phase.samples.iter().map(|s| pool[s.idx % pool.len()].work_mcore_ms as f64).sum();
    let capacity = (cfg.nodes as u64 * cfg.capacity.cpu_millis) as f64;
    out.set("cpu_util_mean", work / (capacity * phase.wall_s * 1e3 * TIME_SCALE));
    out.set("peak_rss_mb", rss);
    out.set("setup_s", median(&setups));
    out
}
