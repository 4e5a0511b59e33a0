//! Serverless IoT device management (§3.1, Internet of Things).
//!
//! "One particular use case is device registration management — whenever a
//! new IoT device registers, it triggers a serverless function, which in
//! turn populates a registry in a serverless data store. The stored
//! registry can then be queried using other serverless functions."
//!
//! Registrations arrive through a FaaS **queue trigger**; the registration
//! function writes the device into a Jiffy-backed registry; query
//! functions read it. Telemetry readings stream through a second function
//! that keeps per-device last-seen state.

use taureau_core::wire::Reader;
use taureau_faas::trigger::TriggerManager;
use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::Jiffy;

use crate::{put_count_sum, read_count_sum};

/// A device registration event, wire format `id|kind|location`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// Device identifier.
    pub device_id: String,
    /// Device kind (sensor class).
    pub kind: String,
    /// Deployment location.
    pub location: String,
}

impl Registration {
    /// Encode for the trigger payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        format!("{}|{}|{}", self.device_id, self.kind, self.location).into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let s = std::str::from_utf8(bytes).ok()?;
        let mut it = s.split('|');
        let device_id = it.next()?.to_string();
        let kind = it.next()?.to_string();
        let location = it.next()?.to_string();
        if device_id.is_empty() || it.next().is_some() {
            return None;
        }
        Some(Self {
            device_id,
            kind,
            location,
        })
    }
}

/// The deployed IoT backend.
pub struct IotBackend {
    platform: FaasPlatform,
    jiffy: Jiffy,
    triggers: TriggerManager,
    registration_queue: usize,
    telemetry_queue: usize,
}

impl IotBackend {
    /// Deploy the registration/telemetry functions and their queues.
    pub fn deploy(platform: &FaasPlatform, jiffy: &Jiffy) -> Self {
        let registry_store = jiffy.clone();
        platform
            .register(FunctionSpec::new("iot-register", "iot", move |ctx| {
                let reg = Registration::decode(&ctx.payload).ok_or("bad registration")?;
                let kv = registry_store
                    .open_kv("/iot/registry")
                    .or_else(|_| registry_store.create_kv("/iot/registry", 2))
                    .map_err(|e| e.to_string())?;
                kv.put(
                    reg.device_id.as_bytes(),
                    format!("{}|{}", reg.kind, reg.location).as_bytes(),
                )
                .map_err(|e| e.to_string())?;
                // Secondary index: kind -> comma-joined device ids.
                let idx_key = format!("kind:{}", reg.kind);
                let mut ids = kv
                    .get(idx_key.as_bytes())
                    .map_err(|e| e.to_string())?
                    .map(|b| String::from_utf8_lossy(&b).into_owned())
                    .unwrap_or_default();
                let already = ids.split(',').any(|i| i == reg.device_id);
                if !already {
                    if !ids.is_empty() {
                        ids.push(',');
                    }
                    ids.push_str(&reg.device_id);
                    kv.put(idx_key.as_bytes(), ids.as_bytes())
                        .map_err(|e| e.to_string())?;
                }
                Ok(Vec::new())
            }))
            .expect("register iot-register");

        let telemetry_store = jiffy.clone();
        platform
            .register(FunctionSpec::new("iot-telemetry", "iot", move |ctx| {
                // Payload: `device_id|reading`.
                let s = ctx.payload_str().ok_or("bad telemetry")?;
                let (id, reading) = s.split_once('|').ok_or("bad telemetry")?;
                let reading: f64 = reading.parse().map_err(|_| "bad reading")?;
                let kv = telemetry_store
                    .open_kv("/iot/telemetry")
                    .or_else(|_| telemetry_store.create_kv("/iot/telemetry", 2))
                    .map_err(|e| e.to_string())?;
                // Keep last reading and a running (count, sum).
                let stats_key = format!("stats:{id}");
                let (mut count, mut sum) = kv
                    .get(stats_key.as_bytes())
                    .map_err(|e| e.to_string())?
                    .and_then(|b| read_count_sum(&b))
                    .unwrap_or((0, 0.0));
                count += 1;
                sum += reading;
                kv.put(stats_key.as_bytes(), &put_count_sum(count, sum))
                    .map_err(|e| e.to_string())?;
                kv.put(format!("last:{id}").as_bytes(), &reading.to_le_bytes())
                    .map_err(|e| e.to_string())?;
                Ok(Vec::new())
            }))
            .expect("register iot-telemetry");

        let triggers = TriggerManager::new(platform.clone());
        let registration_queue = triggers.add_queue("iot-register");
        let telemetry_queue = triggers.add_queue("iot-telemetry");
        Self {
            platform: platform.clone(),
            jiffy: jiffy.clone(),
            triggers,
            registration_queue,
            telemetry_queue,
        }
    }

    /// A device registers (event lands on the trigger queue).
    pub fn register_device(&self, reg: &Registration) {
        self.triggers
            .enqueue(self.registration_queue, &reg.encode());
    }

    /// A device reports a reading.
    pub fn report(&self, device_id: &str, reading: f64) {
        self.triggers.enqueue(
            self.telemetry_queue,
            format!("{device_id}|{reading}").as_bytes(),
        );
    }

    /// Pump all queued events through the functions; returns how many ran.
    pub fn process_events(&self) -> usize {
        self.triggers.run_due().map(|v| v.len()).unwrap_or(0)
    }

    /// Query: device metadata.
    pub fn lookup(&self, device_id: &str) -> Option<(String, String)> {
        let kv = self.jiffy.open_kv("/iot/registry").ok()?;
        let b = kv.get(device_id.as_bytes()).ok()??;
        let s = String::from_utf8(b.to_vec()).ok()?;
        let (kind, location) = s.split_once('|')?;
        Some((kind.to_string(), location.to_string()))
    }

    /// Query: device ids of a kind.
    pub fn devices_of_kind(&self, kind: &str) -> Vec<String> {
        let Some(kv) = self.jiffy.open_kv("/iot/registry").ok() else {
            return Vec::new();
        };
        kv.get(format!("kind:{kind}").as_bytes())
            .ok()
            .flatten()
            .map(|b| {
                String::from_utf8_lossy(&b)
                    .split(',')
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Query: (last, mean) of a device's readings.
    pub fn device_stats(&self, device_id: &str) -> Option<(f64, f64)> {
        let kv = self.jiffy.open_kv("/iot/telemetry").ok()?;
        let last = kv.get(format!("last:{device_id}").as_bytes()).ok()??;
        let last = f64::from_bits(Reader::read_all(&last, Reader::u64)?);
        let stats = kv.get(format!("stats:{device_id}").as_bytes()).ok()??;
        let (count, sum) = read_count_sum(&stats)?;
        Some((last, sum / count as f64))
    }

    /// The platform (for billing inspection).
    pub fn platform(&self) -> &FaasPlatform {
        &self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::JiffyConfig;

    fn setup() -> IotBackend {
        let clock = VirtualClock::shared();
        let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
        let jiffy = Jiffy::new(JiffyConfig::default(), clock);
        IotBackend::deploy(&platform, &jiffy)
    }

    fn reg(id: &str, kind: &str, loc: &str) -> Registration {
        Registration {
            device_id: id.into(),
            kind: kind.into(),
            location: loc.into(),
        }
    }

    #[test]
    fn registration_roundtrip() {
        let b = setup();
        b.register_device(&reg("dev-1", "thermometer", "cellar"));
        assert_eq!(b.lookup("dev-1"), None, "event not yet processed");
        assert_eq!(b.process_events(), 1);
        assert_eq!(
            b.lookup("dev-1"),
            Some(("thermometer".into(), "cellar".into()))
        );
    }

    #[test]
    fn kind_index_lists_devices() {
        let b = setup();
        b.register_device(&reg("t1", "thermometer", "attic"));
        b.register_device(&reg("t2", "thermometer", "cellar"));
        b.register_device(&reg("c1", "camera", "door"));
        b.process_events();
        let mut therm = b.devices_of_kind("thermometer");
        therm.sort();
        assert_eq!(therm, vec!["t1".to_string(), "t2".to_string()]);
        assert_eq!(b.devices_of_kind("camera"), vec!["c1".to_string()]);
        assert!(b.devices_of_kind("toaster").is_empty());
    }

    #[test]
    fn re_registration_updates_without_duplicate_index() {
        let b = setup();
        b.register_device(&reg("d", "sensor", "here"));
        b.register_device(&reg("d", "sensor", "there"));
        b.process_events();
        assert_eq!(b.lookup("d"), Some(("sensor".into(), "there".into())));
        assert_eq!(b.devices_of_kind("sensor"), vec!["d".to_string()]);
    }

    #[test]
    fn telemetry_tracks_last_and_mean() {
        // The paper's motivating example: "fermentation temperature
        // monitoring with a Raspberry Pi".
        let b = setup();
        b.register_device(&reg("fermenter", "thermometer", "cellar"));
        for t in [18.0, 19.0, 23.0] {
            b.report("fermenter", t);
        }
        b.process_events();
        let (last, mean) = b.device_stats("fermenter").unwrap();
        assert_eq!(last, 23.0);
        assert!((mean - 20.0).abs() < 1e-12);
        assert_eq!(b.device_stats("ghost"), None);
    }

    #[test]
    fn malformed_events_do_not_poison_the_queue() {
        let b = setup();
        b.triggers
            .enqueue(b.registration_queue, b"not a registration without pipes");
        b.register_device(&reg("ok", "sensor", "x"));
        // The malformed event fails its invocation; the valid one lands.
        b.process_events();
        assert!(b.lookup("ok").is_some());
    }

    #[test]
    fn each_event_is_a_billed_invocation() {
        let b = setup();
        for i in 0..5 {
            b.register_device(&reg(&format!("d{i}"), "sensor", "x"));
        }
        b.process_events();
        assert_eq!(b.platform().billing().invocations("iot"), 5);
    }
}
