//! Serverless ETL (§3.1, Data Processing).
//!
//! "The typical use case is to read data from some serverless data store,
//! process it using a serverless function to extract, modify and write
//! useful elements of the data back to serverless storage." This module is
//! that pipeline: three black-box FaaS functions — **extract** (parse and
//! validate raw CSV records), **transform** (filter and enrich), **load**
//! (write to a Jiffy KV and maintain per-category aggregates) — composed
//! with the orchestration crate, batched through the frame codec.

use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::Jiffy;
use taureau_orchestration::{frame, Composition, Orchestrator};

use crate::{put_count_sum, read_count_sum};

/// A parsed record: `id,category,value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Unique id.
    pub(crate) id: u64,
    /// Category label.
    pub(crate) category: String,
    /// Numeric measure.
    pub value: f64,
}

impl Record {
    fn to_line(&self) -> String {
        format!("{},{},{}", self.id, self.category, self.value)
    }

    fn parse(line: &str) -> Option<Record> {
        let mut parts = line.split(',');
        let id = parts.next()?.trim().parse().ok()?;
        let category = parts.next()?.trim();
        if category.is_empty() {
            return None;
        }
        let value = parts.next()?.trim().parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Record {
            id,
            category: category.to_string(),
            value,
        })
    }
}

/// Generate raw CSV lines with a malformed fraction (the extract stage's
/// job is dropping those).
pub fn synthetic_lines(n: usize, malformed_every: usize, seed: u64) -> Vec<String> {
    use rand::Rng;
    let mut rng = taureau_core::rng::det_rng(seed);
    let categories = ["web", "iot", "mobile", "batch"];
    (0..n)
        .map(|i| {
            if malformed_every > 0 && i % malformed_every == malformed_every - 1 {
                "this,is,not a number".to_string()
            } else {
                let cat = categories[rng.gen_range(0..categories.len())];
                format!("{},{},{:.3}", i, cat, rng.gen_range(0.0..100.0))
            }
        })
        .collect()
}

/// The deployed pipeline: handles to its composition and state.
pub struct EtlPipeline {
    orchestrator: Orchestrator,
    composition: Composition,
    jiffy: Jiffy,
}

/// Result of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct EtlReport {
    /// Raw lines in.
    pub input_lines: usize,
    /// Records surviving extraction.
    pub extracted: usize,
    /// Records surviving the transform filter.
    pub loaded: usize,
    /// Basic function invocations billed.
    pub invocations: usize,
}

impl EtlPipeline {
    /// Register the three stages on the platform and return the pipeline.
    /// `min_value` is the transform stage's filter threshold;
    /// `enrich_factor` scales values (the "modify" step).
    pub fn deploy(
        platform: &FaasPlatform,
        jiffy: &Jiffy,
        min_value: f64,
        enrich_factor: f64,
    ) -> Self {
        // extract: framed raw lines -> framed valid record lines.
        platform
            .register(FunctionSpec::new("etl-extract", "etl", |ctx| {
                let lines = frame::unpack(&ctx.payload).ok_or("unframed input")?;
                let valid: Vec<Vec<u8>> = lines
                    .iter()
                    .filter_map(|raw| {
                        let line = std::str::from_utf8(raw).ok()?;
                        Record::parse(line).map(|r| r.to_line().into_bytes())
                    })
                    .collect();
                Ok(frame::pack(&valid))
            }))
            .expect("register extract");

        // transform: filter by min_value, scale by enrich_factor.
        platform
            .register(FunctionSpec::new("etl-transform", "etl", move |ctx| {
                let lines = frame::unpack(&ctx.payload).ok_or("unframed input")?;
                let out: Vec<Vec<u8>> = lines
                    .iter()
                    .filter_map(|raw| {
                        let line = std::str::from_utf8(raw).ok()?;
                        let mut r = Record::parse(line)?;
                        if r.value < min_value {
                            return None;
                        }
                        r.value *= enrich_factor;
                        Some(r.to_line().into_bytes())
                    })
                    .collect();
                Ok(frame::pack(&out))
            }))
            .expect("register transform");

        // load: write records into the Jiffy sink and bump aggregates.
        let sink = jiffy.clone();
        platform
            .register(FunctionSpec::new("etl-load", "etl", move |ctx| {
                let lines = frame::unpack(&ctx.payload).ok_or("unframed input")?;
                let kv = sink
                    .open_kv("/etl/sink")
                    .or_else(|_| sink.create_kv("/etl/sink", 4))
                    .map_err(|e| e.to_string())?;
                let agg = sink
                    .open_kv("/etl/aggregates")
                    .or_else(|_| sink.create_kv("/etl/aggregates", 1))
                    .map_err(|e| e.to_string())?;
                let mut loaded = 0u64;
                for raw in &lines {
                    let line = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
                    let r = Record::parse(line).ok_or("corrupt record at load")?;
                    kv.put(&r.id.to_le_bytes(), line.as_bytes())
                        .map_err(|e| e.to_string())?;
                    // category -> (count, sum) running aggregate.
                    let key = format!("cat:{}", r.category);
                    let (mut count, mut sum) = agg
                        .get(key.as_bytes())
                        .map_err(|e| e.to_string())?
                        .and_then(|b| read_count_sum(&b))
                        .unwrap_or((0, 0.0));
                    count += 1;
                    sum += r.value;
                    agg.put(key.as_bytes(), &put_count_sum(count, sum))
                        .map_err(|e| e.to_string())?;
                    loaded += 1;
                }
                Ok(loaded.to_le_bytes().to_vec())
            }))
            .expect("register load");

        let orchestrator = Orchestrator::new(platform.clone());
        let composition = Composition::pipeline(["etl-extract", "etl-transform", "etl-load"]);
        Self {
            orchestrator,
            composition,
            jiffy: jiffy.clone(),
        }
    }

    /// Run the pipeline over a batch of raw lines.
    pub fn run(&self, lines: &[String]) -> Result<EtlReport, taureau_faas::FaasError> {
        let framed = frame::pack(
            &lines
                .iter()
                .map(|l| l.as_bytes().to_vec())
                .collect::<Vec<_>>(),
        );
        let report = self.orchestrator.run(&self.composition, &framed)?;
        let loaded =
            u64::from_le_bytes(report.output[..].try_into().expect("load returns u64")) as usize;
        let extracted = self
            .jiffy
            .open_kv("/etl/sink")
            .and_then(|kv| kv.len())
            .unwrap_or(0);
        Ok(EtlReport {
            input_lines: lines.len(),
            extracted,
            loaded,
            invocations: report.invocation_count(),
        })
    }

    /// Look up a loaded record by id.
    pub fn lookup(&self, id: u64) -> Option<Record> {
        let kv = self.jiffy.open_kv("/etl/sink").ok()?;
        let bytes = kv.get(&id.to_le_bytes()).ok()??;
        Record::parse(std::str::from_utf8(&bytes).ok()?)
    }

    /// (count, sum) aggregate for a category.
    pub fn aggregate(&self, category: &str) -> Option<(u64, f64)> {
        let agg = self.jiffy.open_kv("/etl/aggregates").ok()?;
        read_count_sum(&agg.get(format!("cat:{category}").as_bytes()).ok()??)
    }
}

/// Convenience: chunk lines into batches and run the pipeline per batch
/// (the event-driven shape: one batch per storage event).
pub fn run_batched(
    pipeline: &EtlPipeline,
    lines: &[String],
    batch: usize,
) -> Result<EtlReport, taureau_faas::FaasError> {
    assert!(batch > 0);
    let mut total = EtlReport {
        input_lines: 0,
        extracted: 0,
        loaded: 0,
        invocations: 0,
    };
    for chunk in lines.chunks(batch) {
        let r = pipeline.run(chunk)?;
        total.input_lines += r.input_lines;
        total.loaded += r.loaded;
        total.invocations += r.invocations;
        total.extracted = r.extracted; // sink size is cumulative
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::JiffyConfig;

    fn setup() -> (FaasPlatform, Jiffy) {
        let clock = VirtualClock::shared();
        (
            FaasPlatform::new(PlatformConfig::deterministic(), clock.clone()),
            Jiffy::new(JiffyConfig::default(), clock),
        )
    }

    #[test]
    fn record_parsing() {
        assert_eq!(
            Record::parse("7,web,3.5"),
            Some(Record {
                id: 7,
                category: "web".into(),
                value: 3.5
            })
        );
        assert_eq!(Record::parse("x,web,3.5"), None);
        assert_eq!(Record::parse("7,,3.5"), None);
        assert_eq!(Record::parse("7,web,abc"), None);
        assert_eq!(Record::parse("7,web,3.5,extra"), None);
        assert_eq!(Record::parse(""), None);
    }

    #[test]
    fn pipeline_end_to_end() {
        let (platform, jiffy) = setup();
        let p = EtlPipeline::deploy(&platform, &jiffy, 0.0, 2.0);
        let lines = vec![
            "1,web,10.0".to_string(),
            "garbage".to_string(),
            "2,iot,5.0".to_string(),
        ];
        let report = p.run(&lines).unwrap();
        assert_eq!(report.input_lines, 3);
        assert_eq!(report.loaded, 2);
        assert_eq!(report.invocations, 3); // extract, transform, load
                                           // Enrichment doubled values.
        assert_eq!(p.lookup(1).unwrap().value, 20.0);
        assert_eq!(p.lookup(2).unwrap().value, 10.0);
        assert_eq!(p.lookup(99), None);
    }

    #[test]
    fn transform_filters_below_threshold() {
        let (platform, jiffy) = setup();
        let p = EtlPipeline::deploy(&platform, &jiffy, 50.0, 1.0);
        let lines = vec![
            "1,web,10.0".into(),
            "2,web,60.0".into(),
            "3,web,55.0".into(),
        ];
        let report = p.run(&lines).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(p.lookup(1), None);
        assert!(p.lookup(2).is_some());
    }

    #[test]
    fn aggregates_accumulate_per_category() {
        let (platform, jiffy) = setup();
        let p = EtlPipeline::deploy(&platform, &jiffy, 0.0, 1.0);
        p.run(&["1,web,10.0".into(), "2,web,20.0".into(), "3,iot,5.0".into()])
            .unwrap();
        assert_eq!(p.aggregate("web"), Some((2, 30.0)));
        assert_eq!(p.aggregate("iot"), Some((1, 5.0)));
        assert_eq!(p.aggregate("mobile"), None);
        // A second batch keeps accumulating.
        p.run(&["4,web,5.0".into()]).unwrap();
        assert_eq!(p.aggregate("web"), Some((3, 35.0)));
    }

    #[test]
    fn batched_runs_process_everything() {
        let (platform, jiffy) = setup();
        let p = EtlPipeline::deploy(&platform, &jiffy, 0.0, 1.0);
        let lines = synthetic_lines(100, 10, 1);
        let report = run_batched(&p, &lines, 16).unwrap();
        assert_eq!(report.input_lines, 100);
        assert_eq!(report.extracted, 90); // 10 malformed dropped
                                          // 7 batches × 3 stages.
        assert_eq!(report.invocations, 21);
    }

    #[test]
    fn billing_covers_only_the_three_stages() {
        let (platform, jiffy) = setup();
        let p = EtlPipeline::deploy(&platform, &jiffy, 0.0, 1.0);
        p.run(&["1,web,1.0".into()]).unwrap();
        assert_eq!(platform.billing().invocations("etl"), 3);
    }
}
