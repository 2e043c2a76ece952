//! Content-keyed compile-artifact cache — the "compile once" half of the
//! grid engine.
//!
//! The study grid re-runs identical MiniC compilations for every cell
//! that shares `(source, defines, level, toolchain, heap limit)`: the six
//! environments of Fig 12/13 differ only at *run* time, the tier policies
//! of Table 7 only at *instantiation* time. This module memoizes the
//! compile outputs (and, for Wasm, the decode+validate+side-table
//! preparation) under a 128-bit content key so each distinct artifact is
//! built exactly once per process, across threads.
//!
//! **Invariant: caching may never change virtual numbers.** A cached run
//! replays the same virtual load/compile charges as an uncached one
//! ([`wb_wasm_vm::Instance::instantiate_prepared`]); only wall-clock work
//! is skipped. The cached Wasm preparation is built from the
//! encode→decode roundtrip of the module, exactly like the uncached
//! path, so execution is bit-identical too.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use wb_env::Toolchain;
use wb_minic::backend::native::NativeProgram;
use wb_minic::OptLevel;
use wb_wasm_vm::PreparedModule;

/// 128-bit FNV-1a content hash identifying one compile artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(pub u128);

/// Which backend an artifact was compiled for (part of the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// MiniC → Wasm binary (+ prepared module).
    Wasm,
    /// MiniC → MiniJS source.
    Js,
    /// MiniC → native evaluator program.
    Native,
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
        // Field separator so concatenations can't collide ("ab","c" vs
        // "a","bc").
        self.0 ^= 0x1f;
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
    }
}

impl ArtifactKey {
    /// Key for one compile configuration. Everything that can change the
    /// compile output is hashed; everything that only affects run time
    /// (environment, tier policy, JIT mode, entry point) deliberately is
    /// not, which is where the grid's cache hits come from.
    pub fn compute(
        kind: ArtifactKind,
        source: &str,
        defines: &[(String, String)],
        level: OptLevel,
        toolchain: Toolchain,
        heap_limit: Option<u64>,
        trap_checks: bool,
    ) -> ArtifactKey {
        let mut h = Fnv128::new();
        h.write(&[match kind {
            ArtifactKind::Wasm => 1u8,
            ArtifactKind::Js => 2,
            ArtifactKind::Native => 3,
        }]);
        h.write(source.as_bytes());
        h.write(&(defines.len() as u64).to_le_bytes());
        for (k, v) in defines {
            h.write(k.as_bytes());
            h.write(v.as_bytes());
        }
        h.write(level.name().as_bytes());
        // The variant's `Debug` name, spelled out so keying allocates nothing.
        h.write(match toolchain {
            Toolchain::Cheerp => b"Cheerp".as_slice(),
            Toolchain::Emscripten => b"Emscripten".as_slice(),
        });
        match heap_limit {
            Some(v) => {
                h.write(&[1]);
                h.write(&v.to_le_bytes());
            }
            None => h.write(&[0]),
        }
        // Trap-checks builds emit different JS (checked div / bounds
        // helpers), so they must never share a slot with plain builds.
        h.write(&[trap_checks as u8]);
        ArtifactKey(h.0)
    }
}

/// A cached Wasm compile: the encoded binary, the `print_str` table and
/// the shared decode+validate+side-table preparation.
pub struct CachedWasm {
    /// Encoded module binary (the Fig 5 code-size metric measures this).
    pub bytes: Vec<u8>,
    /// Host string table for `standard_imports`.
    pub strings: Vec<String>,
    /// Prepared module, built from `decode(encode(module))` exactly like
    /// the uncached instantiate path.
    pub prepared: Arc<PreparedModule>,
}

/// A cached JS compile.
pub struct CachedJs {
    /// Generated MiniJS source.
    pub source: String,
}

/// A cached native compile.
pub struct CachedNative {
    /// The immutable native program (its `run` takes `&self`).
    pub prog: NativeProgram,
}

/// One cache slot. The per-key mutex serializes *compilation* of that key
/// across workers — the second worker blocks until the first finishes,
/// then takes the hit — while the outer map lock is only held long enough
/// to fetch the slot.
struct Slot<T> {
    filled: Mutex<Option<Arc<T>>>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            filled: Mutex::new(None),
        }
    }
}

struct KeyedCache<T> {
    slots: Mutex<HashMap<ArtifactKey, Arc<Slot<T>>>>,
}

impl<T> KeyedCache<T> {
    fn new() -> Self {
        KeyedCache {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Get-or-build: returns `(artifact, was_hit)`.
    fn get_or_build<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let slot = {
            let mut map = self.slots.lock().expect("artifact cache poisoned");
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Slot::new())))
        };
        let mut filled = slot.filled.lock().expect("artifact slot poisoned");
        if let Some(v) = filled.as_ref() {
            return Ok((Arc::clone(v), true));
        }
        let built = Arc::new(build()?);
        *filled = Some(Arc::clone(&built));
        Ok((built, false))
    }
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Artifact bytes we did not have to re-produce (sum of hit artifact
    /// sizes).
    pub bytes_saved: u64,
}

impl CacheStats {
    /// Hits / (hits + misses), or 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe, content-keyed compile-artifact cache with hit/miss
/// accounting. One instance is usually shared per process via
/// [`ArtifactCache::global`].
pub struct ArtifactCache {
    wasm: KeyedCache<CachedWasm>,
    js: KeyedCache<CachedJs>,
    native: KeyedCache<CachedNative>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_saved: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache {
            wasm: KeyedCache::new(),
            js: KeyedCache::new(),
            native: KeyedCache::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
        }
    }

    /// The process-wide cache all harness binaries share.
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactCache::new)
    }

    fn note(&self, hit: bool, artifact_bytes: u64) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.bytes_saved
                .fetch_add(artifact_bytes, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Get or build the Wasm artifact for `key`.
    pub fn wasm<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CachedWasm, E>,
    ) -> Result<Arc<CachedWasm>, E> {
        let (v, hit) = self.wasm.get_or_build(key, build)?;
        self.note(hit, v.bytes.len() as u64);
        Ok(v)
    }

    /// Get or build the JS artifact for `key`.
    pub fn js<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CachedJs, E>,
    ) -> Result<Arc<CachedJs>, E> {
        let (v, hit) = self.js.get_or_build(key, build)?;
        self.note(hit, v.source.len() as u64);
        Ok(v)
    }

    /// Get or build the native artifact for `key`.
    pub fn native<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CachedNative, E>,
    ) -> Result<Arc<CachedNative>, E> {
        let (v, hit) = self.native.get_or_build(key, build)?;
        self.note(hit, v.prog.code_size());
        Ok(v)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(source: &str, defines: &[(&str, &str)], level: OptLevel, tc: Toolchain) -> ArtifactKey {
        let defines: Vec<(String, String)> = defines
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ArtifactKey::compute(
            ArtifactKind::Wasm,
            source,
            &defines,
            level,
            tc,
            Some(1 << 20),
            false,
        )
    }

    #[test]
    fn distinct_configurations_get_distinct_keys() {
        let base = key("int x;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp);
        assert_ne!(
            base,
            key("int y;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp),
            "source"
        );
        assert_ne!(
            base,
            key("int x;", &[("N", "11")], OptLevel::O2, Toolchain::Cheerp),
            "define value"
        );
        assert_ne!(
            base,
            key("int x;", &[("M", "10")], OptLevel::O2, Toolchain::Cheerp),
            "define name"
        );
        assert_ne!(
            base,
            key("int x;", &[], OptLevel::O2, Toolchain::Cheerp),
            "define count"
        );
        assert_ne!(
            base,
            key("int x;", &[("N", "10")], OptLevel::O0, Toolchain::Cheerp),
            "level"
        );
        assert_ne!(
            base,
            key(
                "int x;",
                &[("N", "10")],
                OptLevel::O2,
                Toolchain::Emscripten
            ),
            "toolchain"
        );
    }

    #[test]
    fn kind_heap_limit_and_boundaries_are_part_of_the_key() {
        let mk = |kind, heap| {
            ArtifactKey::compute(
                kind,
                "int x;",
                &[],
                OptLevel::O2,
                Toolchain::Cheerp,
                heap,
                false,
            )
        };
        let trapped = ArtifactKey::compute(
            ArtifactKind::Js,
            "int x;",
            &[],
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            true,
        );
        assert_ne!(mk(ArtifactKind::Js, None), trapped, "trap-checks flag");
        assert_ne!(mk(ArtifactKind::Wasm, None), mk(ArtifactKind::Js, None));
        assert_ne!(mk(ArtifactKind::Js, None), mk(ArtifactKind::Native, None));
        assert_ne!(
            mk(ArtifactKind::Wasm, None),
            mk(ArtifactKind::Wasm, Some(0)),
            "heap limit None vs Some(0)"
        );
        assert_ne!(
            mk(ArtifactKind::Wasm, Some(1 << 20)),
            mk(ArtifactKind::Wasm, Some(1 << 21))
        );
        // Field-boundary shifts must not collide.
        let a = ArtifactKey::compute(
            ArtifactKind::Wasm,
            "ab",
            &[("c".into(), "d".into())],
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            false,
        );
        let b = ArtifactKey::compute(
            ArtifactKind::Wasm,
            "a",
            &[("bc".into(), "d".into())],
            OptLevel::O2,
            Toolchain::Cheerp,
            None,
            false,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn same_configuration_is_stable() {
        let a = key("int x;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp);
        let b = key("int x;", &[("N", "10")], OptLevel::O2, Toolchain::Cheerp);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_counts_hits_misses_and_bytes_saved() {
        let cache = ArtifactCache::new();
        let k = key("int x;", &[], OptLevel::O2, Toolchain::Cheerp);
        let build = || -> Result<CachedJs, ()> {
            Ok(CachedJs {
                source: "function f() {}".to_string(),
            })
        };
        let first = cache.js(k, build).unwrap();
        let again = cache.js(k, build).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.bytes_saved, first.source.len() as u64);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let k = key("bad", &[], OptLevel::O2, Toolchain::Cheerp);
        let r: Result<_, String> = cache.js(k, || Err("boom".to_string()));
        assert!(r.is_err());
        // A later successful build fills the slot.
        let ok = cache.js(k, || -> Result<CachedJs, String> {
            Ok(CachedJs { source: "x".into() })
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn concurrent_builders_compile_once() {
        let cache = Arc::new(ArtifactCache::new());
        let k = key("int y;", &[], OptLevel::O2, Toolchain::Cheerp);
        let built = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let built = Arc::clone(&built);
                scope.spawn(move || {
                    cache
                        .js(k, || -> Result<CachedJs, ()> {
                            built.fetch_add(1, Ordering::Relaxed);
                            Ok(CachedJs { source: "f".into() })
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1, "one compile total");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }
}
