//! Golden-stream corpus: pins the exact bytes every serial compressor
//! plugin emits for a fixed input, and the exact round-trip error of
//! decoding those committed bytes.
//!
//! Why: the on-disk stream format of every plugin is a compatibility
//! contract. An innocent-looking refactor that changes a header field, a
//! chunk split, or a quantizer rounding rule silently breaks every archive
//! ever written. These tests make such a change loud: the encode test
//! fails bit-for-bit, the decode test fails on the recorded error.
//!
//! Corpus layout (committed under `tests/golden/`):
//!
//! * `<name>.bin` — the compressed stream for [`field`]
//! * `MANIFEST.txt` — one line per plugin: `name  byte_len  max_abs_err`
//!   (the error is printed with `{:?}` so it parses back bit-exactly)
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_streams
//! git diff tests/golden/   # review what changed, then commit
//! ```
//!
//! Every compressor in the registry must be either in [`GOLDEN`] or in
//! [`EXCLUDED`] with a documented reason — adding a plugin without
//! classifying it here is a test failure.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use libpressio::core::{value_range, OPT_REL};
use libpressio::prelude::*;

/// Serial plugins with a pinned golden stream.
const GOLDEN: &[&str] = &[
    "bit_grooming",
    "bitshuffle",
    "blosc",
    "cast",
    "deflate",
    "delta",
    "digit_rounding",
    "fpzip",
    "huffman",
    "linear_quantizer",
    "lz",
    "mgard",
    "noop",
    "rans",
    "rle",
    "shuffle",
    "sz",
    "sz_interp",
    "sz_threadsafe",
    "tthresh",
    "zfp",
];

/// Registered compressors deliberately *not* in the golden corpus, with the
/// reason. Keep this honest: an entry here is a promise that some other
/// test pins the plugin's behavior.
const EXCLUDED: &[(&str, &str)] = &[
    ("sz_omp", "pooled variant of sz; its chunk directory is pinned below as sz_omp_chunks2, values against serial sz by tests/determinism.rs"),
    ("zfp_omp", "pooled variant of zfp; its chunk directory is pinned below as zfp_omp_chunks2, values against serial zfp by tests/determinism.rs"),
    ("chunking", "meta wrapper; its envelope is pinned below as chunking_sz_chunks2 over sz"),
    ("guard", "meta wrapper adding a policy envelope; its frame is pinned below as guard_v1/guard_v2 over noop"),
    ("opt", "meta wrapper that searches child configurations; output depends on the search, not a fixed format"),
    ("pipeline", "meta wrapper; stream is the composed children's, covered by tests/composition.rs"),
    ("switch", "meta wrapper that delegates to a selected child"),
    ("transpose", "meta wrapper; stream is the child's on permuted data, covered by tests/composition.rs"),
    ("resize", "meta wrapper; stream is the child's on reshaped data"),
    ("sample", "decimating sampler: reconstruction is not error-bounded, so a recorded bound is meaningless"),
    ("noise", "injects (seeded) noise by design; not a format contract"),
    ("fault_injector", "injects faults by design; not a format contract"),
    ("many_independent", "synthetic multi-buffer demo plugin, not a stream format"),
    ("many_dependent", "synthetic multi-buffer demo plugin, not a stream format"),
];

/// Extra pinned streams outside the per-plugin serial corpus: container and
/// envelope formats written and verified by their own tests below (they
/// have no manifest row — the formats are lossless, so there is no error
/// to record).
const EXTRA_GOLDEN: &[&str] = &[
    "rans_nthreads2",
    "huffman_nthreads2",
    "deflate_nthreads2",
    "sz_omp_chunks2",
    "zfp_omp_chunks2",
    "chunking_sz_chunks2",
    "guard_v1",
    "guard_v2",
    "mgard_1d_1000",
    "mgard_2d_f64_48x56",
    "mgard_aniso_3x200x5",
    "mgard_4d_3x4x17x33",
    "mgard_exceptions",
];

/// Value-range-relative bound applied to every plugin (lossless plugins
/// ignore the foreign `pressio:` key).
const REL: f64 = 1e-3;

/// The corpus input: the same 10x9x8 `f32` Scale-LetKF field the
/// determinism suite uses — 720 elements, odd extents, a sharp front.
fn field() -> Data {
    libpressio::init();
    libpressio::datagen::scale_letkf(10, 9, 8, 77)
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn update_mode() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0")
}

const REGEN_HINT: &str =
    "if this format change is intentional, regenerate the corpus with\n    \
     UPDATE_GOLDEN=1 cargo test --test golden_streams\nand commit the tests/golden/ diff";

fn compressor(name: &str) -> CompressorHandle {
    let library = libpressio::instance();
    let mut c = library.get_compressor(name).expect(name);
    c.set_options(&Options::new().with(OPT_REL, REL)).expect(name);
    c
}

fn encode(name: &str, input: &Data) -> Vec<u8> {
    compressor(name)
        .compress(input)
        .unwrap_or_else(|e| panic!("{name}: golden encode failed: {e}"))
        .as_bytes()
        .to_vec()
}

fn decode(name: &str, stream: &[u8], input: &Data) -> Data {
    let mut output = Data::owned(input.dtype(), input.dims().to_vec());
    compressor(name)
        .decompress(&Data::from_bytes(stream), &mut output)
        .unwrap_or_else(|e| panic!("{name}: golden decode failed: {e}"));
    output
}

fn max_abs_err(a: &Data, b: &Data) -> f64 {
    a.to_f64_vec()
        .expect("f64 view")
        .iter()
        .zip(b.to_f64_vec().expect("f64 view").iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Parse `MANIFEST.txt` into `name -> (byte_len, max_abs_err)`.
fn read_manifest() -> BTreeMap<String, (usize, f64)> {
    let path = golden_dir().join("MANIFEST.txt");
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden manifest {}: {e}\n{REGEN_HINT}",
            path.display()
        )
    });
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('+') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(name), Some(len), Some(err)) = (it.next(), it.next(), it.next()) else {
            panic!("malformed manifest line {line:?}");
        };
        let len: usize = len.parse().unwrap_or_else(|e| panic!("bad len in {line:?}: {e}"));
        let err: f64 = err.parse().unwrap_or_else(|e| panic!("bad err in {line:?}: {e}"));
        out.insert(name.to_string(), (len, err));
    }
    out
}

#[test]
fn every_registry_compressor_is_classified() {
    libpressio::init();
    let registered = libpressio::instance().supported_compressors();
    for name in &registered {
        let in_golden = GOLDEN.contains(&name.as_str());
        let excluded = EXCLUDED.iter().any(|(n, _)| n == name);
        assert!(
            in_golden || excluded,
            "compressor {name:?} is registered but not classified by the golden-stream \
             corpus: add it to GOLDEN in tests/golden_streams.rs (and regenerate with \
             UPDATE_GOLDEN=1), or add it to EXCLUDED with a documented reason"
        );
        assert!(
            !(in_golden && excluded),
            "compressor {name:?} is both GOLDEN and EXCLUDED"
        );
    }
    // Stale entries are as confusing as missing ones.
    for name in GOLDEN.iter().chain(EXCLUDED.iter().map(|(n, _)| n)) {
        assert!(
            registered.iter().any(|r| r == name),
            "{name:?} is classified in tests/golden_streams.rs but no longer registered"
        );
    }
}

/// Regenerate-or-verify: in normal runs, every plugin's freshly encoded
/// stream must be byte-identical to the committed one (and to a second
/// encode in the same process — encoding must be deterministic before a
/// golden file can make sense). With `UPDATE_GOLDEN=1`, rewrite the corpus.
#[test]
fn golden_streams_are_bit_identical() {
    let input = field();
    let dir = golden_dir();

    if update_mode() {
        fs::create_dir_all(&dir).expect("create tests/golden");
        let mut manifest = String::from(
            "# Golden-stream manifest: name  byte_len  max_abs_err\n\
             # Input: datagen::scale_letkf(10, 9, 8, 77), options pressio:rel=1e-3.\n\
             # Regenerate: UPDATE_GOLDEN=1 cargo test --test golden_streams\n",
        );
        for name in GOLDEN {
            let stream = encode(name, &input);
            let err = max_abs_err(&input, &decode(name, &stream, &input));
            fs::write(dir.join(format!("{name}.bin")), &stream).expect(name);
            manifest.push_str(&format!("{name} {} {:?}\n", stream.len(), err));
        }
        // The container rows were recorded by the commit that generated
        // their streams and travel through a regeneration untouched.
        let old = fs::read_to_string(dir.join("MANIFEST.txt")).unwrap_or_default();
        if let Some(at) = old.find(CONTAINER_HEADER) {
            manifest.push_str(&old[at..]);
        }
        fs::write(dir.join("MANIFEST.txt"), manifest).expect("write manifest");
        return;
    }

    let manifest = read_manifest();
    for name in GOLDEN {
        let first = encode(name, &input);
        let second = encode(name, &input);
        assert_eq!(
            first, second,
            "{name}: encoding the same input twice produced different streams — \
             nondeterministic plugins cannot be golden-tested; fix the plugin or move \
             it to EXCLUDED with a reason"
        );
        let path = dir.join(format!("{name}.bin"));
        let golden = fs::read(&path).unwrap_or_else(|e| {
            panic!("{name}: missing golden stream {}: {e}\n{REGEN_HINT}", path.display())
        });
        if first != golden {
            let diff_at = first
                .iter()
                .zip(&golden)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| first.len().min(golden.len()));
            panic!(
                "{name}: encoded stream differs from committed golden stream \
                 ({} bytes now vs {} committed, first difference at byte {diff_at}).\n\
                 This means the on-disk format changed: old archives may no longer decode.\n{REGEN_HINT}",
                first.len(),
                golden.len()
            );
        }
        let (len, _) = manifest
            .get(*name)
            .unwrap_or_else(|| panic!("{name}: missing from MANIFEST.txt\n{REGEN_HINT}"));
        assert_eq!(*len, golden.len(), "{name}: manifest length is stale\n{REGEN_HINT}");
    }
    // Orphaned corpus files mean a plugin was removed without cleanup.
    for entry in fs::read_dir(&dir).expect("tests/golden") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "bin") {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            assert!(
                GOLDEN.contains(&stem) || EXTRA_GOLDEN.contains(&stem),
                "orphaned golden stream {}: not in GOLDEN or EXTRA_GOLDEN\n{REGEN_HINT}",
                path.display()
            );
        }
    }
}

/// First line of the container block of `MANIFEST.txt`; every row under it
/// is `+name  byte_len  xxh64(decoded bytes)`.
const CONTAINER_HEADER: &str = "# Chunked-container streams";

/// 2 x 256 KiB of highly skewed bytes: the smallest input the adaptive
/// chunk plan still splits in two, and one whose streams stay a few KiB.
fn skewed_bytes() -> Data {
    let raw: Vec<u8> = (0..2 * libpressio::core::MIN_CHUNK_BYTES)
        .map(|i| if i % 113 == 0 { (i / 113 % 7 + 1) as u8 } else { 0 })
        .collect();
    Data::from_bytes(&raw)
}

/// A 64^3 `f32` field: 1 MiB, so the plan splits it for two threads at
/// both `f32` and promoted-`f64` width.
fn cube() -> Data {
    libpressio::datagen::nyx_density(64, 77)
}

/// The chunked containers the serial corpus cannot reach (its field is far
/// below the chunking floor): stream name, plugin, its options for a given
/// thread count, the input.
type Container = (&'static str, &'static str, fn(u32) -> Options, fn() -> Data);
const CONTAINERS: &[Container] = &[
    ("rans_nthreads2", "rans", |n| Options::new().with("rans:nthreads", n), skewed_bytes),
    ("huffman_nthreads2", "huffman", |n| Options::new().with("huffman:nthreads", n), skewed_bytes),
    ("deflate_nthreads2", "deflate", |n| Options::new().with("deflate:nthreads", n), skewed_bytes),
    ("sz_omp_chunks2", "sz_omp", |n| Options::new().with("sz_omp:nthreads", n), cube),
    ("zfp_omp_chunks2", "zfp_omp", |n| Options::new().with("zfp_omp:nthreads", n), cube),
    (
        "chunking_sz_chunks2",
        "chunking",
        |n| {
            Options::new()
                .with("chunking:compressor", "sz")
                .with("chunking:nthreads", n)
                .with(OPT_REL, REL)
        },
        cube,
    ),
];

/// Pins every chunk directory: magic, count, per-chunk sections and, for
/// `zfp_omp`, the bit length per entry — a wire contract of its own that the
/// serial corpus never writes. Each stream was written while its container
/// was still a hand-written loop of its own (`rans_nthreads2` one PR before
/// the rest) and is never regenerated (the `guard_v1` rule): the one shared
/// container must write the same bytes and read them back to the bytes
/// recorded then — with a one-thread handle, since the layout travels in the
/// stream.
#[test]
fn golden_container_streams_pin_every_chunk_directory() {
    libpressio::init();
    let manifest = fs::read_to_string(golden_dir().join("MANIFEST.txt")).expect("MANIFEST.txt");
    for (name, plugin, options, input) in CONTAINERS {
        let input = input();
        let arm = |nthreads: u32| {
            let mut c = compressor(plugin);
            c.set_options(&options(nthreads)).expect(name);
            c
        };
        let stream = arm(2).compress(&input).expect(name);
        // One thread fewer and the plan does not split: if the streams stop
        // differing, the pin is no longer testing a chunk directory.
        let serial = arm(1).compress(&input).expect(name);
        assert_ne!(stream.as_bytes(), serial.as_bytes(), "{name}: the plan did not split");

        assert_pinned(name, stream.as_bytes(), &mut arm(1), &input, &manifest);
    }
}

/// A stream that is never regenerated (the `guard_v1` rule): `stream`, just
/// encoded, must be the committed bytes, and the committed bytes must decode
/// through `decoder` to the output whose hash `manifest` recorded with them.
fn assert_pinned(name: &str, stream: &[u8], decoder: &mut CompressorHandle, input: &Data, manifest: &str) {
    let golden = fs::read(golden_dir().join(format!("{name}.bin"))).expect(name);
    assert!(
        stream == golden.as_slice(),
        "{name}: stream format changed ({} bytes now, {} committed): old archives \
         may no longer decode",
        stream.len(),
        golden.len()
    );
    let mut out = Data::empty(input.dtype());
    decoder
        .decompress(&Data::from_bytes(&golden), &mut out)
        .unwrap_or_else(|e| panic!("{name}: committed stream no longer decodes: {e}"));
    assert_eq!(out.dims(), input.dims(), "{name}");
    let row = format!("+{name} {} {:016x}", golden.len(), libpressio::core::xxh64(out.as_bytes()));
    assert!(
        manifest.lines().any(|l| l == row),
        "{name}: decoded bytes changed; MANIFEST.txt has no row {row:?}"
    );
}

/// Values made by integer and exactly rounded arithmetic only (no libm, so
/// the same bits on every host): a quadratic trend of height `scale` under
/// LCG noise a hundredth of that.
fn arithmetic_values(n: usize, scale: f64) -> Vec<f64> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|i| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = i as f64 / n as f64;
            let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            scale * (t * (1.0 - t) * 4.0 + noise * 0.01)
        })
        .collect()
}

fn arithmetic_f32(dims: &[usize]) -> Data {
    let values = arithmetic_values(dims.iter().product(), 30.0);
    Data::from_vec(values.into_iter().map(|v| v as f32).collect(), dims.to_vec()).expect("dims")
}

/// `mgard` streams the serial corpus cannot reach — its one field is 3-D,
/// isotropic and `f32`, and no node of it leaves the code range: stream name,
/// the bound, the input.
type MgardPin = (&'static str, (&'static str, f64), fn() -> Data);
const MGARD_PINS: &[MgardPin] = &[
    ("mgard_1d_1000", (OPT_REL, REL), || arithmetic_f32(&[1000])),
    ("mgard_2d_f64_48x56", (OPT_REL, REL), || {
        Data::from_vec(arithmetic_values(48 * 56, 30.0), vec![48, 56]).expect("dims")
    }),
    // z stops coarsening after one level, x after two, y after seven.
    ("mgard_aniso_3x200x5", (OPT_REL, REL), || arithmetic_f32(&[3, 200, 5])),
    // The two leading axes collapse into one of extent 12.
    ("mgard_4d_3x4x17x33", (OPT_REL, REL), || arithmetic_f32(&[3, 4, 17, 33])),
    // Values near 1e10 at an absolute 1e-6: every base node and every noisy
    // detail node quantizes past 2^46 and travels verbatim; the smooth runs
    // between them still quantize.
    ("mgard_exceptions", ("mgard:tolerance", 1e-6), || {
        let mut v = arithmetic_values(20 * 23, 1e10);
        for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 7 >= 3) {
            *x = 1e10 + i as f64 * 1e-3;
        }
        Data::from_vec(v, vec![20, 23]).expect("dims")
    }),
];

/// Pins the `mgard` traversal where the serial corpus does not look: 1-D,
/// 2-D `f64`, axes that stop coarsening at different levels, the > 3-D
/// collapse and the verbatim-exception sections. Node order, corner order and
/// accumulation order *are* the format, so each stream was written by the
/// last commit whose kernel built a corner list per node and is never
/// regenerated: the sweep must write the same bytes and read them back to the
/// values recorded then.
#[test]
fn golden_mgard_streams_pin_the_traversal() {
    libpressio::init();
    let manifest = fs::read_to_string(golden_dir().join("MANIFEST.txt")).expect("MANIFEST.txt");
    for (name, (key, bound), input) in MGARD_PINS {
        let input = input();
        let mut mgard = libpressio::instance().get_compressor("mgard").expect("mgard");
        mgard.set_options(&Options::new().with(*key, *bound)).expect(name);
        let stream = mgard.compress(&input).expect(name);
        assert_pinned(name, stream.as_bytes(), &mut mgard, &input, &manifest);
    }
}

/// Pins the `guard` integrity frame in both versions, over the `noop`
/// child on the corpus field. `guard_v2.bin` is what the guard writes: it
/// must re-encode byte-identically. `guard_v1.bin` was written by the last
/// commit whose guard wrote frame v1 (FNV-1a trailer) and is never
/// regenerated: streams already on disk must keep decoding, to the same
/// bytes, for as long as this file sits here. The two differ in the version
/// field and the eight trailer bytes, nothing else.
#[test]
fn golden_guard_frames_pin_both_versions() {
    let input = field();
    let guard = || {
        let mut c = libpressio::instance().get_compressor("guard").expect("guard");
        c.set_options(&Options::new().with("guard:compressor", "noop"))
            .expect("guard:compressor");
        c
    };
    let stream = guard().compress(&input).expect("guard encode").as_bytes().to_vec();
    let v2_path = golden_dir().join("guard_v2.bin");
    if update_mode() {
        fs::write(&v2_path, &stream).expect("write guard_v2.bin");
        return;
    }
    let read = |path: &Path| {
        fs::read(path).unwrap_or_else(|e| {
            panic!("missing golden stream {}: {e}\n{REGEN_HINT}", path.display())
        })
    };
    let v2 = read(&v2_path);
    assert_eq!(
        stream, v2,
        "guard frame format changed: old archives may no longer decode.\n{REGEN_HINT}"
    );
    let v1 = read(&golden_dir().join("guard_v1.bin"));
    assert_eq!((v1[4], v2[4]), (1, 2), "the frames' version fields");
    let trailer = v2.len() - 8;
    assert_eq!(v1.len(), v2.len());
    assert_eq!(v1[6..trailer], v2[6..trailer], "same layout, same child stream");
    assert_ne!(v1[trailer..], v2[trailer..], "FNV-1a and XXH64 trailers");
    for (version, stream) in [("v1", &v1), ("v2", &v2)] {
        // Sized and unsized outputs both: the frame's echo shapes the latter.
        for mut out in [Data::owned(input.dtype(), input.dims().to_vec()), Data::empty(input.dtype())] {
            guard()
                .decompress(&Data::from_bytes(stream), &mut out)
                .unwrap_or_else(|e| panic!("guard frame {version} no longer decodes: {e}"));
            assert_eq!(out, input, "guard frame {version}");
        }
    }
}

/// The committed streams must still decode, to exactly the round-trip
/// error recorded when the corpus was generated. Decoding is
/// deterministic, so the recorded error is reproduced bit-for-bit; any
/// drift means the decoder changed behavior on existing archives.
#[test]
fn golden_streams_decode_to_recorded_error() {
    let input = field();
    let manifest = read_manifest();
    if update_mode() {
        // golden_streams_are_bit_identical regenerates; nothing to pin here.
        return;
    }
    let abs_bound = REL * value_range(&input.to_f64_vec().expect("f64 view"));
    for name in GOLDEN {
        let (_, recorded) = manifest
            .get(*name)
            .unwrap_or_else(|| panic!("{name}: missing from MANIFEST.txt\n{REGEN_HINT}"));
        let path = golden_dir().join(format!("{name}.bin"));
        let stream = fs::read(&path).unwrap_or_else(|e| {
            panic!("{name}: missing golden stream {}: {e}\n{REGEN_HINT}", path.display())
        });
        let err = max_abs_err(&input, &decode(name, &stream, &input));
        assert_eq!(
            err.to_bits(),
            recorded.to_bits(),
            "{name}: decoding the committed stream gave max abs error {err:?}, but the \
             manifest records {recorded:?} — the decoder's output on existing archives \
             changed.\n{REGEN_HINT}"
        );
        // The recorded error must also respect the generation-time bound —
        // a corpus regenerated from a buggy encoder should not pass review.
        assert!(
            *recorded <= abs_bound * (1.0 + 1e-12),
            "{name}: recorded error {recorded:?} exceeds the pressio:rel={REL} bound \
             ({abs_bound:?}) the corpus was generated under"
        );
    }
}
