//! The serving probe of the traced runs: an in-process `dtm-serve`
//! server on loopback, driven by closed-loop connections whose requests
//! mostly repeat a small set of pre-touched cells (memo hits) and
//! otherwise carry a fresh sensor seed at a short duration (fresh scalar
//! simulations). It reports the serving layers' per-layer metrics.
//! Serving is not an end-to-end workload: its throughput and latencies
//! follow the host's load too closely to hold a regression bound (see
//! `README.md`).

use crate::check;
use crate::common::{load_threads, Outcome};
use crate::heap;
use crate::spans::{by_name, Ctx, Recorder};
use crate::stats::{median, Digest, Rng};
use dtm_core::{Experiment, PolicySpec, RunResult};
use dtm_harness::json::Json;
use dtm_serve::{Client, Response, ResultSource, Server, ServerConfig, ServerHandle, SimRequest};
use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Distinct cells the hit traffic repeats. A memo hit costs a hash
/// probe and an encode whatever the set's size; 16 lies within the
/// range of distinct evaluations the repository's one measured repeating
/// caller re-asks (`exp_explore --smoke`: 6 promoted points re-asked in
/// one halving rung, 23 re-asks in all).
const HIT_SET: usize = 16;

/// Share of requests that carry a fresh seed (memo misses). This is a
/// chosen mix, not a measured one: at a hit latency of about 0.3 ms and
/// a miss latency of about 10 ms, a share of `t_hit / (t_hit + t_miss)`
/// ≈ 0.03 makes hits and misses take about equal halves of each
/// connection's time, so the probe exercises both paths alike.
const MISS_SHARE: f64 = 0.03;

/// Simulated seconds of a miss request.
const MISS_DURATION_S: f64 = 0.01;

/// The server: fast-test traces and runs, no disk cache, every
/// standard trace generated at start, one simulation worker per load
/// thread.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: load_threads(),
        prewarm: true,
        ..ServerConfig::fast_test()
    }
}

/// The seed-chosen cells the hit traffic repeats (server defaults
/// otherwise).
fn hit_set(seed: u64) -> Vec<SimRequest> {
    let mut pairs: Vec<(String, PolicySpec)> = standard_workloads()
        .into_iter()
        .flat_map(|w| {
            PolicySpec::all()
                .into_iter()
                .map(move |p| (w.id.clone(), p))
        })
        .collect();
    Rng::new(seed, 0x4175).shuffle(&mut pairs);
    pairs
        .into_iter()
        .take(HIT_SET)
        .map(|(w, p)| SimRequest::standard(&w, &p.wire_name()))
        .collect()
}

/// A miss: a random cell at [`MISS_DURATION_S`] with a sensor seed no
/// other request of the run uses.
fn miss(rng: &mut Rng, seed: u64, conn: u64, k: u64) -> SimRequest {
    let workloads = standard_workloads();
    let policies = PolicySpec::all();
    SimRequest {
        duration_s: Some(MISS_DURATION_S),
        seed: Some((1 << 63) | (seed & 0xffff_ffff) << 24 | conn << 20 | k),
        ..SimRequest::standard(
            &workloads[rng.below(workloads.len())].id,
            &policies[rng.below(policies.len())].wire_name(),
        )
    }
}

/// The result `Experiment::run` gives for the cell `req` names.
fn reference(req: &SimRequest, lib: &Arc<TraceLibrary>) -> Result<RunResult, String> {
    let r = req.resolve(&server_config().base_sim)?;
    Experiment::new_shared(Arc::clone(lib), r.variant.sim, r.variant.dtm)
        .with_faults(r.variant.faults)
        .run(&r.workload, r.policy)
        .map_err(|e| e.to_string())
}

/// References for many requests, on the load threads.
fn references(reqs: &[SimRequest]) -> Vec<Result<RunResult, String>> {
    let lib = Arc::new(TraceLibrary::new(TraceGenConfig::fast_test()));
    let chunk = reqs.len().div_ceil(load_threads()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .chunks(chunk)
            .map(|part| {
                let lib = &lib;
                s.spawn(move || part.iter().map(|r| reference(r, lib)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Request-flow counts of one phase.
#[derive(Debug, Default, Clone)]
struct Phase {
    sent: u64,
    ok: u64,
    rejected: u64,
    timeout: u64,
    error: u64,
    hits_sent: u64,
    misses_sent: u64,
    memo: u64,
    simulated: u64,
    wrong: u64,
}

impl Phase {
    fn add(&mut self, o: &Phase) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.rejected += o.rejected;
        self.timeout += o.timeout;
        self.error += o.error;
        self.hits_sent += o.hits_sent;
        self.misses_sent += o.misses_sent;
        self.memo += o.memo;
        self.simulated += o.simulated;
        self.wrong += o.wrong;
    }

    fn failed(&self) -> u64 {
        self.rejected + self.timeout + self.error + self.wrong
    }

    /// Adds the phase's counts to `out`. A closed-loop run on at most
    /// two connections should see no rejection, timeout or error, so
    /// any of them fails the run.
    fn settle_into(&self, name: &str, out: &mut Outcome) {
        out.attempted += self.sent;
        out.failed += self.failed();
        if self.rejected + self.timeout + self.error > 0 {
            out.error(format!(
                "{name}: {} rejected, {} timed out, {} errored of {} sent",
                self.rejected, self.timeout, self.error, self.sent
            ));
        }
    }

    fn json(&self, name: &str) -> Json {
        let n = |v: u64| Json::u64(v);
        Json::Obj(vec![
            ("phase".into(), Json::str(name)),
            ("sent".into(), n(self.sent)),
            ("ok".into(), n(self.ok)),
            ("rejected".into(), n(self.rejected)),
            ("timeout".into(), n(self.timeout)),
            ("error".into(), n(self.error)),
            ("hits_sent".into(), n(self.hits_sent)),
            ("misses_sent".into(), n(self.misses_sent)),
            ("memo".into(), n(self.memo)),
            ("simulated".into(), n(self.simulated)),
            ("wrong".into(), n(self.wrong)),
        ])
    }
}

/// Sends `req` and classifies the reply into `phase`; returns the
/// result of a completed request with its source.
fn send(
    client: &mut Client,
    req: SimRequest,
    phase: &mut Phase,
) -> Option<(ResultSource, RunResult)> {
    phase.sent += 1;
    match client.simulate(req) {
        Ok(Response::Result(r)) => {
            phase.ok += 1;
            match r.source {
                ResultSource::Memo => phase.memo += 1,
                ResultSource::Simulated => phase.simulated += 1,
                ResultSource::Disk => {}
            }
            Some((r.source, r.result))
        }
        Ok(Response::Overloaded { .. }) => {
            phase.rejected += 1;
            None
        }
        Ok(Response::Timeout { .. }) => {
            phase.timeout += 1;
            None
        }
        _ => {
            phase.error += 1;
            None
        }
    }
}

/// The pre-touch phase: the hit set is requested once, split across
/// the load connections. Returns the counts and each cell's served
/// result.
fn touch(addr: SocketAddr, hits: &[SimRequest]) -> (Phase, Vec<Option<RunResult>>) {
    let conns = load_threads();
    let parts: Vec<(Phase, Vec<(usize, RunResult)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut phase = Phase::default();
                    let mut served = Vec::new();
                    let Ok(mut client) = Client::connect(addr) else {
                        phase.error += 1;
                        return (phase, served);
                    };
                    for (i, req) in hits.iter().enumerate().skip(c).step_by(conns) {
                        phase.hits_sent += 1;
                        if let Some((_, r)) = send(&mut client, req.clone(), &mut phase) {
                            served.push((i, r));
                        }
                    }
                    (phase, served)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("touch thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut served = vec![None; hits.len()];
    for (p, s) in parts {
        phase.add(&p);
        for (i, r) in s {
            served[i] = Some(r);
        }
    }
    (phase, served)
}

/// What the mixed phase saw.
#[derive(Default)]
struct Mixed {
    phase: Phase,
    /// Miss requests with the result served for them.
    misses: Vec<(SimRequest, RunResult)>,
}

/// The mixed phase: closed-loop connections, each sending its next
/// request when the previous reply arrives, until `seconds` elapse.
/// Hits are checked against `refs` as they arrive; misses are returned
/// for checking afterwards. With an enabled `rec`, every request is a
/// span.
fn mixed(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    hits: &[SimRequest],
    refs: &[RunResult],
    rec: &Recorder,
) -> Mixed {
    let start = Instant::now();
    let conns = load_threads() as u64;
    let parts: Vec<Mixed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut m = Mixed::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        m.phase.error += 1;
                        return m;
                    };
                    let mut rng = Rng::new(seed, 100 + c);
                    let mut k = 0u64;
                    while start.elapsed().as_secs_f64() < seconds {
                        k += 1;
                        let (hit, req) = if rng.unit() < MISS_SHARE {
                            m.phase.misses_sent += 1;
                            (None, miss(&mut rng, seed, c, k))
                        } else {
                            m.phase.hits_sent += 1;
                            let i = rng.below(hits.len());
                            (Some(i), hits[i].clone())
                        };
                        let got = rec.span("Client::simulate", Ctx::root(c << 40 | k), |_| {
                            send(&mut client, req.clone(), &mut m.phase)
                        });
                        let Some((_, result)) = got else {
                            continue;
                        };
                        match hit {
                            Some(i) if result != refs[i] => m.phase.wrong += 1,
                            Some(_) => {}
                            None => m.misses.push((req, result)),
                        }
                    }
                    m
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut all = Mixed::default();
    for p in parts {
        all.phase.add(&p.phase);
        all.misses.extend(p.misses);
    }
    all
}

/// Checks every miss against a local `Experiment::run` of its cell.
fn check_misses(out: &mut Outcome, misses: &[(SimRequest, RunResult)]) -> u64 {
    let reqs: Vec<SimRequest> = misses.iter().map(|(q, _)| q.clone()).collect();
    let mut wrong = 0;
    for ((req, served), local) in misses.iter().zip(references(&reqs)) {
        let what = format!(
            "{} {} seed {:?}",
            req.workload.as_deref().unwrap_or("?"),
            req.policy,
            req.seed
        );
        let verdict = local.and_then(|l| check::check_served(&what, served, &l));
        if let Err(e) = verdict {
            wrong += 1;
            if wrong <= 3 {
                out.error(e);
            }
        }
    }
    if wrong > 3 {
        out.error(format!(
            "{wrong} served misses differ from Experiment::run in total"
        ));
    }
    wrong
}

/// Checks a mixed phase's results (hits were compared on arrival,
/// misses are run locally now) and adds its counts to `out`; returns
/// the phase counts with every wrong result included.
fn settle(out: &mut Outcome, m: &Mixed) -> Phase {
    let mut phase = m.phase.clone();
    if phase.wrong > 0 {
        out.error(format!(
            "{} memo hits differ from Experiment::run",
            phase.wrong
        ));
    }
    phase.wrong += check_misses(out, &m.misses);
    phase.settle_into("mixed phase", out);
    phase
}

/// Server start, references for the hit set, and the served touch
/// results checked against them.
fn prepare(
    seed: u64,
    out: &mut Outcome,
) -> Option<(ServerHandle, Vec<SimRequest>, Vec<RunResult>, Phase)> {
    let handle = match Server::spawn(server_config()) {
        Ok(h) => h,
        Err(e) => {
            out.error(format!("server failed to start: {e}"));
            return None;
        }
    };
    let hits = hit_set(seed);
    let (touch_phase, served) = touch(handle.addr(), &hits);
    let mut refs = Vec::with_capacity(hits.len());
    for (req, local) in hits.iter().zip(references(&hits)) {
        match local {
            Ok(r) => refs.push(r),
            Err(e) => {
                out.error(format!("reference run of {req:?} failed: {e}"));
                return None;
            }
        }
    }
    let mut touch_phase = touch_phase;
    for (i, s) in served.iter().enumerate() {
        let what = format!(
            "pre-touch of {} {}",
            hits[i].workload.as_deref().unwrap_or("?"),
            hits[i].policy
        );
        let verdict = match s {
            Some(s) => check::check_served(&what, s, &refs[i]),
            None => Err(format!("{what}: no result")),
        };
        if let Err(e) = verdict {
            touch_phase.wrong += 1;
            out.error(e);
        }
    }
    touch_phase.settle_into("pre-touch", out);
    Some((handle, hits, refs, touch_phase))
}

/// A counter or histogram field from a Prometheus dump.
fn prom(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Misses each connection sends in the memo-growth stretch.
const GROWTH_MISSES: u64 = 200;

/// A digest of every field of `r`: its `Debug` form prints each float
/// exactly.
fn result_digest(r: &RunResult) -> u64 {
    Digest::default()
        .bytes(format!("{r:?}").as_bytes())
        .finish()
}

/// The memo-growth stretch: a server of its own, started with an empty
/// memo, gets [`GROWTH_MISSES`] fresh-seed misses per connection and
/// nothing else. The stretch records no spans and keeps no per-request
/// state beyond one digest slot per miss allocated up front, so the net
/// heap the process gains over it is what the server retains: its memo,
/// table and entries, grown from empty. An empty start makes the
/// table's doublings the same in every run. Afterwards each request is
/// regenerated from the seed and its served digest is checked against
/// `Experiment::run`. Returns the counts and the heap growth in KiB per
/// simulated (unique-seed) miss.
fn memo_growth(seed: u64, out: &mut Outcome) -> (Phase, f64) {
    let handle = match Server::spawn(server_config()) {
        Ok(h) => h,
        Err(e) => {
            out.error(format!("memo-growth server failed to start: {e}"));
            return (Phase::default(), f64::NAN);
        }
    };
    let addr = handle.addr();
    let conns = load_threads() as u64;
    let stream = |c: u64| Rng::new(seed, 300 + c);
    let ready = Barrier::new(conns as usize + 1);
    let go = Barrier::new(conns as usize + 1);
    let (net_bytes, parts) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (ready, go) = (&ready, &go);
                s.spawn(move || {
                    let mut phase = Phase::default();
                    let mut digests = Vec::with_capacity(GROWTH_MISSES as usize);
                    // One round trip first, so the server's handler for
                    // this connection is set up before counting starts.
                    let client = Client::connect(addr).and_then(|mut c| c.metrics().map(|_| c));
                    ready.wait();
                    go.wait();
                    let Ok(mut client) = client else {
                        phase.error += 1;
                        return (phase, digests);
                    };
                    let mut rng = stream(c);
                    for k in 1..=GROWTH_MISSES {
                        phase.misses_sent += 1;
                        let got = send(&mut client, miss(&mut rng, seed, c, k), &mut phase);
                        digests.push(got.map(|(_, r)| result_digest(&r)));
                    }
                    (phase, digests)
                })
            })
            .collect();
        ready.wait();
        heap::start();
        go.wait();
        let parts: Vec<(Phase, Vec<Option<u64>>)> = handles
            .into_iter()
            .map(|h| h.join().expect("memo-growth thread panicked"))
            .collect();
        (heap::stop(), parts)
    });
    handle.shutdown();

    let mut phase = Phase::default();
    let mut reqs = Vec::new();
    let mut served = Vec::new();
    for (c, (p, digests)) in (0..conns).zip(parts) {
        phase.add(&p);
        let mut rng = stream(c);
        for (k, d) in (1..).zip(digests) {
            reqs.push(miss(&mut rng, seed, c, k));
            served.push(d);
        }
    }
    for ((req, d), local) in reqs.iter().zip(&served).zip(references(&reqs)) {
        let ok = match (d, &local) {
            (Some(d), Ok(l)) => *d == result_digest(l),
            _ => false,
        };
        if !ok {
            phase.wrong += 1;
            if phase.wrong <= 3 {
                out.error(format!(
                    "memo-growth miss {} {} seed {:?}: served result differs from Experiment::run",
                    req.workload.as_deref().unwrap_or("?"),
                    req.policy,
                    req.seed
                ));
            }
        }
    }
    phase.settle_into("memo-growth stretch", out);
    let per_seed = net_bytes as f64 / 1024.0 / phase.simulated.max(1) as f64;
    (phase, per_seed)
}

/// The traced pass: `seconds` of the mixed phase with a span per
/// request, the memo-growth stretch, the server's own queue-wait
/// histogram, and `Response::encode` on the hit set's results.
pub fn traced(seed: u64, seconds: f64, out: &mut Outcome) -> Recorder {
    let rec = Recorder::enabled();
    let Some((handle, hits, refs, touch_phase)) = prepare(seed, out) else {
        return rec;
    };
    let addr = handle.addr();
    let m = mixed(addr, seed, seconds, &hits, &refs, &rec);
    let text = Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .unwrap_or_default();
    handle.shutdown();
    let all = settle(out, &m);
    let (growth, kb_per_seed) = memo_growth(seed, out);
    out.detail(
        "serve_phases",
        Json::Arr(vec![
            touch_phase.json("touch"),
            all.json("mixed"),
            growth.json("memo-growth"),
        ]),
    );

    for (i, r) in refs.iter().enumerate() {
        let resp = Response::Result(Box::new(dtm_serve::SimResponse {
            key: format!("{i:032x}"),
            source: ResultSource::Memo,
            wall_us: 0,
            queue_us: 0,
            result: r.clone(),
        }));
        for k in 0..64 {
            rec.span(
                "Response::encode",
                Ctx::root(1 << 62 | (i as u64) << 8 | k),
                |_| std::hint::black_box(resp.encode()),
            );
        }
    }

    let agg = by_name(&rec.spans());
    // Memo hits complete with zero queue wait, so the server's wait sum
    // is spread over its simulations alone.
    let sims = touch_phase.simulated + all.simulated;
    let wait_ns = prom(&text, "dtm_serve_queue_wait_ns_sum").unwrap_or(f64::NAN);
    out.metric(
        "serve.queue_wait_us",
        wait_ns / sims.max(1) as f64 / 1e3,
        "us",
    );
    out.metric(
        "serve.memo_hit_frac",
        all.memo as f64 / all.ok.max(1) as f64,
        "ratio",
    );
    out.metric(
        "serve.encode_us",
        agg.get("Response::encode")
            .map_or(f64::NAN, |s| median(&s.durs_ns))
            / 1e3,
        "us",
    );
    out.metric("serve.memo_kb_per_unique_seed", kb_per_seed, "KiB");
    rec
}
