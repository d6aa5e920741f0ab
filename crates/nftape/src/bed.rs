//! The warmed test bed every forked campaign starts from, and the one typed
//! read of its components.
//!
//! NFTAPE's loop is "program the injector on one fixed test bed, run, read
//! the counters, repeat". A driver that runs that loop many times warms
//! the bed once and forks it per run: [`Warm`] is the capture, [`Bed`] the
//! component ids every run reads, and [`read`] / [`read_mut`] the one way a
//! run turns an id back into a [`Host`], [`Switch`] or [`InjectorDevice`].

use netfi_core::InjectorDevice;
use netfi_myrinet::event::Ev;
use netfi_myrinet::switch::Switch;
use netfi_netstack::{Host, Testbed};
use netfi_sim::{ComponentId, Engine, EngineSnapshot, NullProbe, Probe, Simulation};

use crate::results::ScenarioError;

/// A component type a campaign reads back by id, with the name its
/// [`ScenarioError::WrongComponent`] carries when the id holds another.
pub trait Part: 'static {
    /// The type's name in a [`ScenarioError::WrongComponent`].
    const NAME: &'static str;
}

impl Part for Host {
    const NAME: &'static str = "Host";
}

impl Part for Switch {
    const NAME: &'static str = "Switch";
}

impl Part for InjectorDevice {
    const NAME: &'static str = "InjectorDevice";
}

/// The component `id` of `sim`, as a `T`.
///
/// # Errors
///
/// Returns [`ScenarioError::WrongComponent`] naming `T` if `id` is not a `T`.
pub fn read<T: Part>(sim: &impl Simulation<Ev>, id: ComponentId) -> Result<&T, ScenarioError> {
    sim.component_as::<T>(id)
        .ok_or(ScenarioError::WrongComponent(T::NAME))
}

/// [`read`], mutably.
///
/// # Errors
///
/// Returns [`ScenarioError::WrongComponent`] naming `T` if `id` is not a `T`.
pub fn read_mut<T: Part>(
    sim: &mut impl Simulation<Ev>,
    id: ComponentId,
) -> Result<&mut T, ScenarioError> {
    sim.component_as_mut::<T>(id)
        .ok_or(ScenarioError::WrongComponent(T::NAME))
}

/// The component ids of a test bed with its injector spliced in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bed {
    /// The hosts, in test-bed order.
    pub hosts: Vec<ComponentId>,
    /// The switch.
    pub switch: ComponentId,
    /// The injector device.
    pub device: ComponentId,
}

impl Bed {
    /// The ids of `tb`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::NoInjector`] if `tb` has no injector.
    pub fn of<P: Probe>(tb: &Testbed<P>) -> Result<Bed, ScenarioError> {
        Ok(Bed {
            hosts: tb.hosts.clone(),
            switch: tb.switch,
            device: tb.injector.ok_or(ScenarioError::NoInjector)?,
        })
    }
}

/// A test bed warmed once and captured, forked once per run. A fork
/// replays the warmed engine from the capture instant on, so every run
/// pays only from its own fault on. The donor is left as it was and, with
/// a `Sync` probe, may be forked from any thread.
#[derive(Debug)]
pub struct Warm<P: Probe = NullProbe> {
    /// The bed's component ids, which every fork shares.
    pub bed: Bed,
    snapshot: EngineSnapshot<Ev, P>,
}

impl<P: Probe + Clone> Warm<P> {
    /// Captures `engine`, the engine of the bed `bed` names, run to the
    /// fork instant.
    pub fn new(bed: Bed, engine: &Engine<Ev, P>) -> Warm<P> {
        Warm {
            bed,
            snapshot: engine.snapshot(),
        }
    }

    /// An independent runnable engine at the capture instant (see
    /// [`EngineSnapshot::fork`]).
    pub fn fork(&self) -> Engine<Ev, P> {
        self.snapshot.fork()
    }

    /// Overwrites `engine` with a fork, reusing the storage it has grown
    /// (see [`EngineSnapshot::fork_into`]): what a
    /// [`fan_out`](crate::runner::fan_out) worker calls at the top of every
    /// item on the one engine it keeps. Nothing of what `engine` ran before
    /// survives.
    pub fn fork_into(&self, engine: &mut Engine<Ev, P>) {
        self.snapshot.fork_into(engine);
    }
}

impl<P: Probe> Warm<P> {
    /// [`fork_into`](Warm::fork_into) without the donor's probe (see
    /// [`EngineSnapshot::fork_without_probe`]): what a caller that never
    /// reads the probe forks, into an engine that observes nothing.
    pub fn fork_without_probe(&self, engine: &mut Engine<Ev, NullProbe>) {
        self.snapshot.fork_without_probe(engine);
    }
}
