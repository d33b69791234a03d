//! The environment of every store the benchmark opens: the real clock and
//! randomness over an in-memory filesystem.
//!
//! Data directories belong on tmpfs, so that the numbers measure the
//! program's write-ahead-log path and not the machine's disk, but the
//! benchmark may write only inside its working directory, which is usually
//! on a disk.  On the disk, even with syncs skipped, file creation,
//! unlinking and appends go through the disk filesystem's journal, and the
//! create and drop latencies of `qbe_fit` jumped from run to run with it.
//! So every store keeps its files in memory, as tmpfs would, behind the
//! program's own filesystem seam (`cqfit_env::Fs`).  Files follow POSIX
//! inode semantics: a handle keeps addressing its file after a rename or
//! unlink.  `StoreConfig::fsync` stays on: the store still orders, counts
//! and times every sync it asks for, and a sync returns at once, as on
//! tmpfs.

use cqfit_env::{Clock, Env, Fs, FsFile, OpenMode, RealEnv};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The contents of one file, shared by its directory entry and its handles.
type Inode = Arc<Mutex<Vec<u8>>>;

#[derive(Debug, Default)]
struct Tree {
    files: BTreeMap<PathBuf, Inode>,
    dirs: BTreeSet<PathBuf>,
}

/// Real clock and randomness; files in memory.
#[derive(Debug, Default)]
pub struct BenchEnv {
    real: RealEnv,
    tree: Mutex<Tree>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file or directory", path.display()),
    )
}

impl BenchEnv {
    /// An empty filesystem.
    pub fn new() -> Arc<BenchEnv> {
        Arc::new(BenchEnv::default())
    }

    fn tree(&self) -> MutexGuard<'_, Tree> {
        self.tree.lock().expect("in-memory filesystem poisoned")
    }
}

/// Removes the files directly in `dir`; a missing `dir` is no error.
pub fn clear_dir(fs: &dyn Fs, dir: &Path) {
    for path in fs.read_dir(dir).unwrap_or_default() {
        let _ = fs.remove_file(&path);
    }
}

/// Copies the files directly in `from` into `to`, cleared first.
pub fn copy_dir(fs: &dyn Fs, from: &Path, to: &Path) -> io::Result<()> {
    clear_dir(fs, to);
    fs.create_dir_all(to)?;
    for path in fs.read_dir(from)? {
        let bytes = fs.read(&path)?;
        let name = path.file_name().ok_or_else(|| not_found(&path))?;
        fs.open(&to.join(name), OpenMode::CreateTruncate)?
            .write_all(&bytes)?;
    }
    Ok(())
}

#[derive(Debug)]
struct MemFile {
    inode: Inode,
    append: bool,
    pos: usize,
}

impl FsFile for MemFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut bytes = self.inode.lock().expect("in-memory file poisoned");
        let at = if self.append { bytes.len() } else { self.pos };
        let end = at + buf.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[at..end].copy_from_slice(buf);
        self.pos = end;
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "length out of range"))?;
        self.inode
            .lock()
            .expect("in-memory file poisoned")
            .resize(len, 0);
        Ok(())
    }
}

impl Fs for BenchEnv {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn FsFile>> {
        let mut tree = self.tree();
        let inode = match mode {
            OpenMode::CreateTruncate => {
                let parent = path.parent().unwrap_or(Path::new(""));
                if !tree.dirs.contains(parent) {
                    return Err(not_found(parent));
                }
                let inode = tree.files.entry(path.to_path_buf()).or_default().clone();
                inode.lock().expect("in-memory file poisoned").clear();
                inode
            }
            OpenMode::Append | OpenMode::Write => tree
                .files
                .get(path)
                .cloned()
                .ok_or_else(|| not_found(path))?,
        };
        Ok(Box::new(MemFile {
            inode,
            append: matches!(mode, OpenMode::Append),
            pos: 0,
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let inode = self
            .tree()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        let bytes = inode.lock().expect("in-memory file poisoned").clone();
        Ok(bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        let inode = tree.files.remove(from).ok_or_else(|| not_found(from))?;
        tree.files.insert(to.to_path_buf(), inode);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.tree()
            .files
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        for dir in path.ancestors() {
            tree.dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let tree = self.tree();
        if !tree.dirs.contains(path) {
            return Err(not_found(path));
        }
        let mut entries: Vec<PathBuf> = tree
            .files
            .keys()
            .chain(tree.dirs.iter())
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect();
        entries.sort();
        Ok(entries)
    }
    fn sync_parent_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

impl Env for BenchEnv {
    fn fs(&self) -> &dyn Fs {
        self
    }
    fn clock(&self) -> &dyn Clock {
        &self.real
    }
    fn rng_u64(&self) -> u64 {
        self.real.rng_u64()
    }
}
