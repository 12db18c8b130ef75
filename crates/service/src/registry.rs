//! Engine registry: layout engines addressable by name.
//!
//! The service schedules jobs onto whichever engine the request names;
//! the registry maps that name to a factory building a fresh
//! [`LayoutEngine`] for the job. Engines are constructed per job (they
//! are cheap, configuration-only objects) so a worker never shares
//! engine state with another job.

use layout_core::{BatchEngine, CpuEngine, LayoutConfig, LayoutEngine};

/// Everything a factory may need to build an engine for one job.
#[derive(Debug, Clone)]
pub struct EngineRequest {
    /// The job's layout configuration.
    pub config: LayoutConfig,
    /// Mini-batch size for the batch engine.
    pub batch_size: usize,
}

type Factory = Box<dyn Fn(&EngineRequest) -> Box<dyn LayoutEngine> + Send + Sync>;

/// Named engine factories, preserving registration order.
pub struct EngineRegistry {
    entries: Vec<(String, Factory)>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The standard engine set: `cpu` (Hogwild) and `batch`
    /// (PyTorch-style mini-batch).
    pub fn with_default_engines() -> Self {
        let mut r = Self::new();
        r.register("cpu", |req| Box::new(CpuEngine::new(req.config.clone())));
        r.register("batch", |req| {
            Box::new(BatchEngine::new(req.config.clone(), req.batch_size.max(1)))
        });
        r
    }

    /// Register (or replace) an engine under `name`.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn(&EngineRequest) -> Box<dyn LayoutEngine> + Send + Sync + 'static,
    {
        let name = name.into();
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, Box::new(factory)));
    }

    /// Build an engine for one job, or explain which names would work.
    pub fn create(&self, name: &str, req: &EngineRequest) -> Result<Box<dyn LayoutEngine>, String> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f(req))
            .ok_or_else(|| self.unknown_engine_error(name))
    }

    /// Is an engine registered under `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    /// The single source of truth for the unknown-engine message.
    pub(crate) fn unknown_engine_error(&self, name: &str) -> String {
        format!(
            "unknown engine {name:?}; registered: {}",
            self.names().join(", ")
        )
    }

    /// Registered engine names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::with_default_engines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> EngineRequest {
        EngineRequest {
            config: LayoutConfig::for_tests(1),
            batch_size: 64,
        }
    }

    #[test]
    fn default_registry_builds_every_engine() {
        let r = EngineRegistry::with_default_engines();
        assert_eq!(r.names(), vec!["cpu", "batch"]);
        for name in r.names() {
            let engine = r.create(name, &req()).unwrap();
            assert!(!engine.name().is_empty());
        }
    }

    #[test]
    fn unknown_engine_is_a_helpful_error() {
        let r = EngineRegistry::with_default_engines();
        let err = match r.create("tpu", &req()) {
            Err(e) => e,
            Ok(_) => panic!("tpu should not resolve"),
        };
        assert!(err.contains("tpu") && err.contains("cpu"), "{err}");
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = EngineRegistry::new();
        r.register("x", |req| Box::new(CpuEngine::new(req.config.clone())));
        r.register("x", |req| Box::new(BatchEngine::new(req.config.clone(), 8)));
        assert_eq!(r.names().len(), 1);
        let engine = r.create("x", &req()).unwrap();
        assert_eq!(engine.name(), "batch-pytorch-style");
    }
}
