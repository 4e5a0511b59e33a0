//! Function specifications and invocation context.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use taureau_core::bytesize::ByteSize;
use taureau_core::clock::Clock;

/// The user code of a function: takes the invocation context, returns
/// output bytes or an application error string.
///
/// Handlers run real Rust; workloads that want to *simulate* compute time
/// call [`InvocationCtx::burn`] so that virtual-clock tests and the billing
/// meter see the intended duration.
pub(crate) type Handler = Arc<dyn Fn(&InvocationCtx<'_>) -> Result<Vec<u8>, String> + Send + Sync>;

/// A registered function.
#[derive(Clone)]
pub struct FunctionSpec {
    /// Unique name.
    pub(crate) name: String,
    /// Owning tenant (billing and admission-control domain).
    pub(crate) tenant: String,
    /// Configured memory (drives GB-second billing, like Lambda's memory
    /// setting).
    pub(crate) memory: ByteSize,
    /// Execution time limit ("cloud providers typically limit the execution
    /// time of each function to a short duration", §4.1).
    pub(crate) timeout: Duration,
    /// Maximum concurrent executions.
    pub(crate) max_concurrency: u32,
    /// Optional application group for SAND-style sandbox sharing: functions
    /// with the same `app` share warm sandboxes, so a chain of *different*
    /// functions within one application pays the cold start only once
    /// (Akkus et al., ATC'18 — cited in §1 of the paper). `None` gives the
    /// classic per-function isolation of AWS Lambda.
    pub(crate) app: Option<String>,
    /// The code.
    pub(crate) handler: Handler,
}

impl FunctionSpec {
    /// Spec with platform defaults: 512 MiB, 60 s timeout, concurrency 100.
    pub fn new(
        name: impl Into<String>,
        tenant: impl Into<String>,
        handler: impl Fn(&InvocationCtx<'_>) -> Result<Vec<u8>, String> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            tenant: tenant.into(),
            memory: ByteSize::mb(512),
            timeout: Duration::from_secs(60),
            max_concurrency: 100,
            app: None,
            handler: Arc::new(handler),
        }
    }

    /// Set configured memory.
    pub fn with_memory(mut self, memory: ByteSize) -> Self {
        self.memory = memory;
        self
    }

    /// Set the execution timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Group this function into an application whose functions share warm
    /// sandboxes (SAND-style application-level isolation).
    pub fn with_app(mut self, app: impl Into<String>) -> Self {
        self.app = Some(app.into());
        self
    }
}

impl std::fmt::Debug for FunctionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionSpec")
            .field("name", &self.name)
            .field("tenant", &self.tenant)
            .field("memory", &self.memory)
            .field("timeout", &self.timeout)
            .field("max_concurrency", &self.max_concurrency)
            .field("app", &self.app)
            .finish_non_exhaustive()
    }
}

/// What a handler sees while running.
pub struct InvocationCtx<'a> {
    /// Input payload.
    pub payload: Bytes,
    /// The platform clock, borrowed for the call: an invoke moves no
    /// refcount on the one clock every invoking thread shares. Handlers
    /// simulating compute call [`InvocationCtx::burn`].
    pub(crate) clock: &'a dyn Clock,
}

impl InvocationCtx<'_> {
    /// Simulate `d` of compute: advances a virtual clock instantly, sleeps
    /// a wall clock for real.
    pub fn burn(&self, d: Duration) {
        self.clock.sleep(d);
    }

    /// Payload as UTF-8, if valid.
    pub fn payload_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_defaults_and_overrides() {
        let s = FunctionSpec::new("f", "t", |_| Ok(vec![]))
            .with_memory(ByteSize::gb(1))
            .with_timeout(Duration::from_secs(5));
        assert_eq!(s.memory, ByteSize::gb(1));
        assert_eq!(s.timeout, Duration::from_secs(5));
        assert_eq!(s.max_concurrency, 100);
        assert_eq!(s.name, "f");
        // Debug does not try to print the handler.
        assert!(format!("{s:?}").contains("FunctionSpec"));
    }

    #[test]
    fn ctx_burn_advances_virtual_clock() {
        use taureau_core::clock::VirtualClock;
        let clock = VirtualClock::shared();
        let ctx = InvocationCtx {
            payload: Bytes::new(),
            clock: &*clock,
        };
        ctx.burn(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        assert_eq!(ctx.payload_str(), Some(""));
    }
}
