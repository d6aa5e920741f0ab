//! Fixture: `Component::fork` and `Component::fork_onto` bodies. The
//! field-by-field copies are violations — a field added to `ByHand` later
//! would silently drop out of every snapshot and every resident fork —
//! while the derive- and macro-backed forms, the trait's own declaration
//! and its provided default are clean.
pub trait Component<M> {
    fn fork(&self) -> Box<dyn Component<M>>;
    fn fork_onto(&self, dst: &mut Box<dyn Component<M>>) {
        *dst = self.fork();
    }
}

#[derive(Clone)]
pub struct Derived {
    heard: u64,
}

impl Component<u64> for Derived {
    fn fork(&self) -> Box<dyn Component<u64>> {
        Box::new(self.clone())
    }
    fn fork_onto(&self, dst: &mut Box<dyn Component<u64>>) {
        netfi_sim::clone_onto(self, dst)
    }
}

#[derive(Clone)]
pub struct OneLine;

impl Component<u64> for OneLine {
    fn fork(&self) -> Box<dyn Component<u64>> { Box::new(self.clone()) }
    fn fork_onto(&self, dst: &mut Box<dyn Component<u64>>) { netfi_sim::clone_onto(self, dst) }
}

pub struct ByHand {
    heard: u64,
    peer: Option<u32>,
}

impl Component<u64> for ByHand {
    fn fork(&self) -> Box<dyn sim::Component<u64>> { // line 41: fork-not-clone
        Box::new(ByHand { heard: self.heard, peer: self.peer })
    }
    fn fork_onto(&self, target: &mut Box<dyn sim::Component<u64>>) { // line 44: fork-not-clone
        if let Some(same) = target.as_any_mut().downcast_mut::<ByHand>() {
            same.heard = self.heard;
        }
    }
}

pub struct Renamed {
    heard: u64,
}

netfi_sim::clone_in_place!(Renamed { heard });

impl Component<u64> for Renamed {
    fn fork(&self) -> Box<dyn Component<u64>> {
        Box::new(self.clone())
    }
    fn fork_onto(&self, other: &mut Box<dyn Component<u64>>) { // line 61: fork-not-clone
        netfi_sim::clone_onto(self, other)
    }
}
