//! A tiny leveled logger for daemon diagnostics.
//!
//! The daemon used to scatter bare `eprintln!` calls; this module puts
//! them behind one global level (default [`LogLevel::Warn`], so normal
//! operation is quiet) with a monotonic-timestamp prefix, making the
//! output grep-able and orderable:
//!
//! ```text
//! rkrd[   12.045s] info: serving: 4 workers, epoll event loop, ...
//! rkrd[  183.201s] error: checkpoint to /var/rkr.snap failed: ...
//! ```
//!
//! The timestamp is seconds since the first log statement (monotonic
//! clock — immune to wall-clock jumps). `rkr serve --log-level
//! error|warn|info|debug` sets the level via [`set_level`] before the
//! daemon starts; the level is a relaxed atomic, so checking it in hot
//! paths costs one load.

use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// The daemon lost something it should not have (failed checkpoint,
    /// broken event loop, accept errors).
    Error = 0,
    /// Degraded but serving (resource pressure).
    Warn = 1,
    /// Lifecycle landmarks (graph commits, checkpoints).
    Info = 2,
    /// Per-pass chatter for debugging.
    Debug = 3,
}

impl LogLevel {
    /// The level's lowercase name (the `--log-level` spelling).
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

impl FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<LogLevel, String> {
        match s {
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level '{other}' (use error|warn|info|debug)"
            )),
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Warn as u8);
static START: OnceLock<Instant> = OnceLock::new();

/// Set the global log level (everything at or above it is printed).
pub fn set_level(level: LogLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global log level.
pub fn level() -> LogLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => LogLevel::Error,
        1 => LogLevel::Warn,
        2 => LogLevel::Info,
        _ => LogLevel::Debug,
    }
}

/// Whether `level` would currently be printed — the macros check this
/// before evaluating their format arguments.
pub(crate) fn enabled(level: LogLevel) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Print one line (the macros call this; prefer them).
pub fn write(level: LogLevel, args: std::fmt::Arguments<'_>) {
    let elapsed = START.get_or_init(Instant::now).elapsed();
    eprintln!(
        "rkrd[{:9.3}s] {}: {args}",
        elapsed.as_secs_f64(),
        level.name()
    );
}

macro_rules! log_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Error) {
            $crate::log::write($crate::log::LogLevel::Error, format_args!($($arg)*));
        }
    };
}

macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Info) {
            $crate::log::write($crate::log::LogLevel::Info, format_args!($($arg)*));
        }
    };
}

pub(crate) use {log_error, log_info};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("error".parse::<LogLevel>().unwrap(), LogLevel::Error);
        assert_eq!("debug".parse::<LogLevel>().unwrap(), LogLevel::Debug);
        assert!("loud".parse::<LogLevel>().is_err());
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::Warn.name(), "warn");
    }

    #[test]
    fn enabled_respects_the_level() {
        let before = level();
        set_level(LogLevel::Error);
        assert!(enabled(LogLevel::Error));
        assert!(!enabled(LogLevel::Warn));
        set_level(LogLevel::Debug);
        assert!(enabled(LogLevel::Info));
        set_level(before);
    }
}
