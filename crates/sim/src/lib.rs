//! # mondrian-sim
//!
//! Discrete-event simulation substrate for the Mondrian Data Engine
//! reproduction.
//!
//! The paper evaluates its systems on Flexus, a full-system cycle-accurate
//! simulator. This crate provides the equivalent foundation for our models:
//!
//! * a global **picosecond** time base ([`Time`]) so that components running
//!   at different frequencies (2 GHz CPU cores, 1 GHz NMP logic, DRAM command
//!   clock, 10 GHz SerDes lanes) can interoperate without rounding drift,
//! * [`Clock`], a frequency-domain helper converting between cycles and
//!   picoseconds,
//! * [`EventQueue`], a deterministic monotone event queue (a radix heap)
//!   generic over the event payload type (the engine crate instantiates it
//!   with its unified message enum). Events pop in `(time, scheduling
//!   order)` order; events scheduled before the latest popped time fall back
//!   to a small binary heap and pop first, so the order holds for them too,
//! * [`Stats`], a hierarchical counter registry used by the energy model and
//!   the benchmark harness, and
//! * [`fan_out`], the one helper that runs independent jobs (sweep points,
//!   leased branches, serial-pass stages) on a thread budget and returns
//!   their results in index order.
//!
//! # Example
//!
//! ```
//! use mondrian_sim::{Clock, EventQueue};
//!
//! let clock = Clock::from_ghz(1.0);
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(clock.cycles_to_ps(5), "five");
//! q.schedule(clock.cycles_to_ps(2), "two");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (2_000, "two"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fanout;
mod queue;
mod stats;

pub use clock::{Clock, Time, PS_PER_NS, PS_PER_US};
pub use fanout::fan_out;
pub use queue::EventQueue;
pub use stats::{Stat, Stats};
