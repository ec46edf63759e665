//! # chunkpoint-workloads
//!
//! Streaming media workloads — the MediaBench-equivalent benchmarks the
//! paper evaluates — implemented from scratch and instrumented to run all
//! of their live data through a simulated memory hierarchy
//! ([`chunkpoint_sim::MemoryBus`]).
//!
//! ## Codecs (pure, host-callable)
//!
//! * [`adpcm`] — IMA/DVI ADPCM (MediaBench `adpcm`)
//! * [`g722`] — G.722-style sub-band ADPCM (QMF bank + per-band IMA)
//! * [`g726`] — ITU-T G.726 at 32 kbit/s (≡ G.721, MediaBench `g721`)
//! * [`jpeg`] — baseline grayscale JPEG encoder + robust resumable decoder
//!
//! ## Streaming tasks (simulator-facing)
//!
//! [`Benchmark`] builds each codec as a restartable [`StreamingTask`]: the
//! task processes one data chunk per phase, keeps all cross-phase state in
//! a designated L1 region, and can re-execute any phase after the
//! mitigation layer restores that region — the contract the paper's
//! checkpoint/rollback scheme relies on.
//!
//! The six speech benchmarks are one codec kernel each (ADPCM, G.726,
//! G.722) on two shared task templates, an encoder and a decoder; JPEG
//! decode is [`JpegDecodeTask`]. Each task family has one profile formula:
//! a built task's [`StreamingTask::profile`] and L1 layout come from it,
//! and so does [`Benchmark::profile_for_chunk`], which the chunk-size
//! optimizer calls without building the task. A benchmark's input is a
//! pure function of (benchmark, input size), so a process synthesises it
//! once per size and every build shares it, through the bounded [`Memo`].
//!
//! ```
//! use chunkpoint_workloads::{Benchmark, StreamingTask};
//! use chunkpoint_sim::{Component, FaultProcess, MemoryBus, PlainBus, Platform, Sram};
//! use chunkpoint_ecc::EccKind;
//!
//! let mut task = Benchmark::AdpcmEncode.build_task_scaled(8, 0.1);
//! let sram = Sram::new("l1", 16 * 1024, EccKind::None, FaultProcess::disabled())?;
//! let mut bus = PlainBus::new(sram, Platform::lh7a400(), Component::L1);
//! task.init(&mut bus)?;
//! let produced = task.run_block(0, &mut bus)?;
//! assert!(produced > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adpcm;
pub mod g722;
pub mod g726;
pub mod jpeg;

mod input;
mod memo;
mod stream;
mod tasks;

pub use input::{speech_pcm, test_image};
pub use memo::{Memo, MEMO_CAPACITY};
pub use stream::{
    pack_bytes, pack_i16, read_region, unpack_bytes, unpack_i16, write_region, write_region_at,
    StreamingTask, TaskError, TaskProfile,
};
pub use tasks::{Benchmark, JpegDecodeTask};
