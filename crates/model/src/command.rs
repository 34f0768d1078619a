//! Controller commands and command sequences.
//!
//! The control plane modifies the data plane through three primitive
//! commands: `(sw, tbl)` replaces the table of a single switch atomically,
//! `incr` increments the controller epoch, and `flush` blocks until every
//! packet stamped with an earlier epoch has left the network. The derived
//! command `wait` is `incr; flush`.

use std::fmt;

use crate::table::Table;
use crate::types::SwitchId;

/// A single controller command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Replace the forwarding table of a switch (switch-granularity update).
    Update(SwitchId, Table),
    /// Increment the controller epoch.
    Incr,
    /// Block until all packets from earlier epochs have exited the network.
    Flush,
}

impl Command {
    /// Returns `true` if this command is a switch update.
    pub fn is_update(&self) -> bool {
        matches!(self, Command::Update(..))
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Update(sw, tbl) => write!(f, "upd {sw} ({} rules)", tbl.len()),
            Command::Incr => write!(f, "incr"),
            Command::Flush => write!(f, "flush"),
        }
    }
}

/// A totally-ordered sequence of controller commands.
///
/// Provides the derived `wait` command and the *careful* predicate of
/// Definition 5: a sequence is careful if every pair of switch updates is
/// separated by a wait (an `incr` followed, possibly later, by a `flush`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommandSeq {
    commands: Vec<Command>,
}

impl CommandSeq {
    /// Creates an empty command sequence.
    pub fn new() -> Self {
        CommandSeq::default()
    }

    /// Creates a sequence from a vector of commands.
    pub fn from_commands(commands: Vec<Command>) -> Self {
        CommandSeq { commands }
    }

    /// Appends a command.
    pub fn push(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    /// Appends a switch update.
    pub fn push_update(&mut self, sw: SwitchId, table: Table) {
        self.push(Command::Update(sw, table));
    }

    /// Appends the derived `wait` command (`incr; flush`).
    pub fn push_wait(&mut self) {
        self.push(Command::Incr);
        self.push(Command::Flush);
    }

    /// The commands, in execution order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of commands (counting `incr` and `flush` separately).
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Returns `true` if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Iterates over the commands.
    pub fn iter(&self) -> impl Iterator<Item = &Command> {
        self.commands.iter()
    }

    /// The switch updates contained in the sequence, in order.
    pub fn updates(&self) -> impl Iterator<Item = (SwitchId, &Table)> {
        self.commands.iter().filter_map(|c| match c {
            Command::Update(sw, tbl) => Some((*sw, tbl)),
            _ => None,
        })
    }

    /// Number of switch updates.
    pub fn num_updates(&self) -> usize {
        self.commands.iter().filter(|c| c.is_update()).count()
    }

    /// Number of waits, counted as the number of `incr`/`flush` pairs.
    ///
    /// A `wait` is an `incr` immediately or eventually followed by a `flush`;
    /// for the sequences this crate produces the two always appear adjacent,
    /// so we simply count `flush` commands.
    pub fn num_waits(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, Command::Flush))
            .count()
    }

    /// Returns `true` if the sequence is *simple*: no switch is updated more
    /// than once.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        self.updates().all(|(sw, _)| seen.insert(sw))
    }

    /// Returns `true` if the sequence is *careful* (Definition 5): every pair
    /// of consecutive switch updates is separated by both an `incr` and a
    /// `flush`.
    pub fn is_careful(&self) -> bool {
        let mut saw_incr = true;
        let mut saw_flush = true;
        let mut first_update = true;
        for cmd in &self.commands {
            match cmd {
                Command::Update(..) => {
                    if !(first_update || (saw_incr && saw_flush)) {
                        return false;
                    }
                    first_update = false;
                    saw_incr = false;
                    saw_flush = false;
                }
                Command::Incr => saw_incr = true,
                Command::Flush => saw_flush = true,
            }
        }
        true
    }

    /// Concatenates two sequences.
    #[must_use]
    pub fn concat(mut self, other: CommandSeq) -> CommandSeq {
        self.commands.extend(other.commands);
        self
    }
}

impl fmt::Display for CommandSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.commands.iter().map(ToString::to_string).collect();
        write!(f, "[{}]", parts.join("; "))
    }
}

impl FromIterator<Command> for CommandSeq {
    fn from_iter<I: IntoIterator<Item = Command>>(iter: I) -> Self {
        CommandSeq::from_commands(iter.into_iter().collect())
    }
}

impl IntoIterator for CommandSeq {
    type Item = Command;
    type IntoIter = std::vec::IntoIter<Command>;

    fn into_iter(self) -> Self::IntoIter {
        self.commands.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(sw: u32) -> Command {
        Command::Update(SwitchId(sw), Table::empty())
    }

    #[test]
    fn careful_requires_wait_between_updates() {
        let careless = CommandSeq::from_commands(vec![upd(1), upd(2)]);
        assert!(!careless.is_careful());

        let mut careful = CommandSeq::new();
        careful.push(upd(1));
        careful.push_wait();
        careful.push(upd(2));
        assert!(careful.is_careful());
    }

    #[test]
    fn single_update_is_careful() {
        let seq = CommandSeq::from_commands(vec![upd(1)]);
        assert!(seq.is_careful());
        assert!(CommandSeq::new().is_careful());
    }

    #[test]
    fn incr_alone_is_not_a_wait() {
        let seq = CommandSeq::from_commands(vec![upd(1), Command::Incr, upd(2)]);
        assert!(!seq.is_careful());
        let seq = CommandSeq::from_commands(vec![upd(1), Command::Flush, upd(2)]);
        assert!(!seq.is_careful());
    }

    #[test]
    fn simple_detects_repeats() {
        let simple = CommandSeq::from_commands(vec![upd(1), upd(2)]);
        assert!(simple.is_simple());
        let repeat = CommandSeq::from_commands(vec![upd(1), upd(1)]);
        assert!(!repeat.is_simple());
    }

    #[test]
    fn counting() {
        let mut seq = CommandSeq::new();
        seq.push(upd(1));
        seq.push_wait();
        seq.push(upd(2));
        seq.push_wait();
        assert_eq!(seq.num_updates(), 2);
        assert_eq!(seq.num_waits(), 2);
        assert_eq!(seq.len(), 6);
    }

    #[test]
    fn updates_iterator_preserves_order() {
        let mut seq = CommandSeq::new();
        seq.push(upd(5));
        seq.push_wait();
        seq.push(upd(3));
        let order: Vec<SwitchId> = seq.updates().map(|(sw, _)| sw).collect();
        assert_eq!(order, vec![SwitchId(5), SwitchId(3)]);
    }

    #[test]
    fn display_is_readable() {
        let mut seq = CommandSeq::new();
        seq.push(upd(1));
        seq.push_wait();
        assert_eq!(seq.to_string(), "[upd s1 (0 rules); incr; flush]");
    }
}
