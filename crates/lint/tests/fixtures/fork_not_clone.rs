//! Fixture: `Component::fork` bodies. The field-by-field copy is a
//! violation — a field added to `ByHand` later would silently drop out of
//! every snapshot — while the derive-backed forms and the trait's own
//! declaration are clean.
pub trait Component<M> {
    fn fork(&self) -> Box<dyn Component<M>>;
}

#[derive(Clone)]
pub struct Derived {
    heard: u64,
}

impl Component<u64> for Derived {
    fn fork(&self) -> Box<dyn Component<u64>> {
        Box::new(self.clone())
    }
}

#[derive(Clone)]
pub struct OneLine;

impl Component<u64> for OneLine {
    fn fork(&self) -> Box<dyn Component<u64>> { Box::new(self.clone()) }
}

pub struct ByHand {
    heard: u64,
    peer: Option<u32>,
}

impl Component<u64> for ByHand {
    fn fork(&self) -> Box<dyn sim::Component<u64>> { // line 33: fork-not-clone
        Box::new(ByHand { heard: self.heard, peer: self.peer })
    }
}
