//! JSON checkpointing for long-running searches.
//!
//! Any serializable search state can be frozen to disk and restored
//! bit-exactly: the serde shim keeps `u64` / `f64` identity through JSON,
//! and the workspace's RNGs serialize their raw state, so a resumed
//! search continues the exact trajectory of an uninterrupted one. Writes
//! go through a sibling temp file plus rename, so an interrupted save
//! never corrupts the previous checkpoint.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file exists but does not decode as the expected state.
    Format(serde::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde::Error> for CheckpointError {
    fn from(e: serde::Error) -> Self {
        CheckpointError::Format(e)
    }
}

/// Saves `state` as pretty-printed JSON at `path`, atomically and
/// durably: the staging file is flushed to stable storage (`sync_all`)
/// *before* the rename, so a crash at any point leaves either the old
/// checkpoint or the complete new one — never a truncated file renamed
/// into place. After the rename the parent directory is synced
/// best-effort so the rename itself survives a power loss.
pub fn save<T: Serialize>(path: &Path, state: &T) -> Result<(), CheckpointError> {
    use std::io::Write;
    let json = serde_json::to_string_pretty(state)?;
    // Temp name embeds the full target file name and the pid:
    // checkpoints sharing a stem (`ckpt.1`, `ckpt.2`) or written by
    // concurrent processes never collide on the staging file.
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| {
            CheckpointError::Io(std::io::Error::other("checkpoint path has no file name"))
        })?
        .to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(json.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // Durability of the rename is best-effort: directory fsync is not
    // supported everywhere, and the data itself is already safe.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Loads a previously saved state from `path`.
pub fn load<T: Deserialize>(path: &Path) -> Result<T, CheckpointError> {
    let text = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct State {
        iteration: usize,
        rng_state: [u64; 4],
        best: Option<f64>,
        history: Vec<f64>,
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("naas-engine-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_is_exact() {
        let state = State {
            iteration: 7,
            rng_state: [u64::MAX, 1, 2, 3],
            best: Some(1.25e-9),
            history: vec![f64::INFINITY, 3.5, 0.1],
        };
        let path = tmp_path("roundtrip");
        save(&path, &state).unwrap();
        let back: State = load(&path).unwrap();
        assert_eq!(back, state);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load::<State>(Path::new("/nonexistent/naas.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn load_garbage_is_format_error() {
        let path = tmp_path("garbage");
        std::fs::write(&path, "{not json").unwrap();
        let err = load::<State>(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_checkpoint_is_a_clean_format_error() {
        // Simulates the aftermath of a crash with a non-atomic writer: a
        // prefix of valid JSON. Loading must fail cleanly (so the caller
        // can fall back / restart), never decode garbage.
        let state = State {
            iteration: 3,
            rng_state: [9, 9, 9, 9],
            best: Some(2.5),
            history: vec![1.0, 0.5],
        };
        let path = tmp_path("truncated");
        save(&path, &state).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load::<State>(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
        // Recovery: a subsequent save fully replaces the damaged file.
        save(&path, &state).unwrap();
        assert_eq!(load::<State>(&path).unwrap(), state);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_staging_file_does_not_break_save() {
        // A crash can leave a previous process's `.tmp` behind; saving
        // again must succeed and the target must hold the new state.
        let state = State {
            iteration: 1,
            rng_state: [1, 2, 3, 4],
            best: None,
            history: vec![],
        };
        let path = tmp_path("stale-tmp");
        let stale = path.with_file_name(format!(
            "{}.{}.tmp",
            path.file_name().unwrap().to_str().unwrap(),
            std::process::id()
        ));
        std::fs::write(&stale, "{partial garbage").unwrap();
        save(&path, &state).unwrap();
        assert_eq!(load::<State>(&path).unwrap(), state);
        // The staging file was consumed by the rename.
        assert!(!stale.exists());
        std::fs::remove_file(&path).ok();
    }
}
