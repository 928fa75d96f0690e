//! Task sets: Table II, the mixed set, and overload/ratio scenarios.

use daris_gpu::SimDuration;
use daris_models::{DnnKind, Table1Reference};

use crate::{Priority, TaskId, TaskSpec};

/// The load/ratio scenarios of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatioScenario {
    /// Offered load equals the upper (batching) baseline throughput.
    FullLoad,
    /// Offered load is 150 % of the upper baseline (the main experiments and
    /// the "Overload" bars of Fig. 11).
    Overload,
}

impl RatioScenario {
    /// The offered-load multiplier relative to the upper baseline.
    pub fn load_factor(self) -> f64 {
        match self {
            RatioScenario::FullLoad => 1.0,
            RatioScenario::Overload => 1.5,
        }
    }
}

/// Builder for custom task sets.
#[derive(Debug, Clone, Default)]
pub struct TaskSetBuilder {
    tasks: Vec<TaskSpec>,
    stagger: bool,
}

impl TaskSetBuilder {
    /// Creates an empty builder with release staggering enabled.
    pub fn new() -> Self {
        TaskSetBuilder { tasks: Vec::new(), stagger: true }
    }

    /// Disables release staggering (all first jobs release at time zero).
    pub fn without_stagger(mut self) -> Self {
        self.stagger = false;
        self
    }

    /// Adds `count` identical tasks of the given model, rate and priority.
    pub fn add_tasks(
        mut self,
        model: DnnKind,
        count: u32,
        jobs_per_second: f64,
        priority: Priority,
    ) -> Self {
        let period = SimDuration::from_micros_f64(1e6 / jobs_per_second.max(1e-9));
        let prio_tag = if priority.is_high() { "hp" } else { "lp" };
        for i in 0..count {
            let id = TaskId(self.tasks.len() as u32);
            let name = format!("{}-{}-{:02}", model.to_string().to_lowercase(), prio_tag, i);
            self.tasks.push(TaskSpec::new(id, name, model, period, priority));
        }
        self
    }

    /// Adds a single fully specified task (id is assigned by the builder).
    pub fn add_task(mut self, mut task: TaskSpec) -> Self {
        task.id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        self
    }

    /// Finalizes the set, staggering release phases so tasks of the same
    /// model/priority group do not all release simultaneously.
    pub fn build(mut self) -> TaskSet {
        if self.stagger {
            let n = self.tasks.len().max(1) as u64;
            for (i, t) in self.tasks.iter_mut().enumerate() {
                // Spread first releases uniformly over one (smallest) period.
                t.phase = t.period * (i as u64) / n;
            }
        }
        TaskSet { tasks: self.tasks }
    }
}

/// An immutable set of periodic tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<TaskSpec>,
}

impl TaskSet {
    /// Builds one of the paper's Table II task sets:
    ///
    /// | set | #HP | #LP | per-task JPS |
    /// |---|---|---|---|
    /// | ResNet18 | 17 | 34 | 30 |
    /// | UNet | 5 | 10 | 24 |
    /// | InceptionV3 | 9 | 18 | 24 |
    ///
    /// These counts correspond to ~150 % of the pure-batching upper baseline,
    /// i.e. the paper's standing overload condition.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is `ResNet50`, which Table II does not include.
    pub fn table2(kind: DnnKind) -> TaskSet {
        TaskSet::table2_scaled(kind, 1)
    }

    /// The Table II task set for `kind` with both priority classes scaled by
    /// `factor` — the oversized fleet workloads of the cluster experiments
    /// (`factor` devices' worth of the paper's standing 150 % overload).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is `ResNet50` (see [`table2`](Self::table2)).
    pub fn table2_scaled(kind: DnnKind, factor: u32) -> TaskSet {
        let (hp, lp, jps) = match kind {
            DnnKind::ResNet18 => (17, 34, 30.0),
            DnnKind::UNet => (5, 10, 24.0),
            DnnKind::InceptionV3 => (9, 18, 24.0),
            DnnKind::ResNet50 => panic!("Table II does not define a ResNet50 task set"),
        };
        let factor = factor.max(1);
        TaskSetBuilder::new()
            .add_tasks(kind, hp * factor, jps, Priority::High)
            .add_tasks(kind, lp * factor, jps, Priority::Low)
            .build()
    }

    /// The mixed task set of Fig. 7: one third of each Table II set (rounded),
    /// preserving the paper's 2:1 LP-to-HP ratio and per-model job rates.
    pub fn mixed() -> TaskSet {
        TaskSetBuilder::new()
            .add_tasks(DnnKind::ResNet18, 6, 30.0, Priority::High)
            .add_tasks(DnnKind::ResNet18, 12, 30.0, Priority::Low)
            .add_tasks(DnnKind::UNet, 2, 24.0, Priority::High)
            .add_tasks(DnnKind::UNet, 4, 24.0, Priority::Low)
            .add_tasks(DnnKind::InceptionV3, 3, 24.0, Priority::High)
            .add_tasks(DnnKind::InceptionV3, 6, 24.0, Priority::Low)
            .build()
    }

    /// A ResNet50 task set sized like the Table II recipe (used for the
    /// GSlice comparison of Sec. VI-B): 150 % of the batching baseline with a
    /// 2:1 LP-to-HP ratio at 24 jobs per second per task.
    pub fn resnet50_comparison() -> TaskSet {
        let reference = Table1Reference::for_kind(DnnKind::ResNet50);
        let jps = 24.0;
        #[allow(clippy::cast_sign_loss)] // a positive task count, not time
        let total = (1.5 * reference.max_jps / jps).round() as u32;
        let hp = total / 3;
        let lp = total - hp;
        TaskSetBuilder::new()
            .add_tasks(DnnKind::ResNet50, hp, jps, Priority::High)
            .add_tasks(DnnKind::ResNet50, lp, jps, Priority::Low)
            .build()
    }

    /// A task set for the Fig. 11 overload/ratio study: `hp_share` of the
    /// offered load (0.0–1.0) is high priority, the rest low priority, with
    /// total offered load `scenario.load_factor()` times the upper baseline.
    pub fn with_ratio(kind: DnnKind, scenario: RatioScenario, hp_share: f64) -> TaskSet {
        let jps = match kind {
            DnnKind::ResNet18 => 30.0,
            _ => 24.0,
        };
        let reference = Table1Reference::for_kind(kind);
        let total_jobs = scenario.load_factor() * reference.max_jps;
        #[allow(clippy::cast_sign_loss)] // a task count of at least one, not time
        let total_tasks = (total_jobs / jps).round().max(1.0) as u32;
        #[allow(clippy::cast_sign_loss)] // a share in [0, 1] of that count
        let hp = (f64::from(total_tasks) * hp_share.clamp(0.0, 1.0)).round() as u32;
        let lp = total_tasks - hp;
        TaskSetBuilder::new()
            .add_tasks(kind, hp, jps, Priority::High)
            .add_tasks(kind, lp, jps, Priority::Low)
            .build()
    }

    /// Collects task specs into a set, reassigning ids to `0..n` but
    /// **preserving each task's release phase**: the resulting set releases
    /// its jobs at exactly the instants the originals would. This is the
    /// constructor for sub-setting an existing (already staggered) set —
    /// cluster placement relies on it so every device's local arrival
    /// stream reproduces the global release times. `collect()` instead
    /// re-staggers phases like [`TaskSetBuilder`].
    pub fn preserving_phases(iter: impl IntoIterator<Item = TaskSpec>) -> TaskSet {
        let mut builder = TaskSetBuilder::new().without_stagger();
        for t in iter {
            builder = builder.add_task(t);
        }
        builder.build()
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Appends a task to the set, reassigning its id to keep the
    /// id-equals-index invariant, and returns the assigned id. This is how a
    /// scheduler registers a *guest* task that was placed elsewhere but is
    /// being admitted or migrated here by a cluster dispatcher.
    pub fn adopt(&mut self, mut task: TaskSpec) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        task.id = id;
        self.tasks.push(task);
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.get(id.index())
    }

    /// Number of tasks at a priority level.
    pub fn count(&self, priority: Priority) -> usize {
        self.tasks.iter().filter(|t| t.priority == priority).count()
    }

    /// Total offered load in jobs per second.
    pub fn offered_jps(&self) -> f64 {
        self.tasks.iter().map(TaskSpec::jobs_per_second).sum()
    }

    /// Distinct model kinds present in the set.
    pub fn model_kinds(&self) -> Vec<DnnKind> {
        let mut kinds: Vec<DnnKind> = self.tasks.iter().map(|t| t.model).collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }

    /// Returns a copy with every task's batch size set per model
    /// (Sec. VI-H batched experiments).
    ///
    /// Each client now submits a batch of `B` inputs per request, so its
    /// request period (and deadline) stretches by the same factor: the
    /// per-task *inference* rate is unchanged and only the request
    /// granularity differs, which is how the paper's batched experiment keeps
    /// the offered load comparable to the main experiment.
    pub fn with_paper_batch_sizes(&self) -> TaskSet {
        let mut tasks = self.tasks.clone();
        for t in &mut tasks {
            let batch = t.model.paper_batch_size();
            t.batch_size = batch;
            t.period = t.period * u64::from(batch);
            t.relative_deadline = t.relative_deadline * u64::from(batch);
        }
        TaskSet { tasks }
    }
}

impl FromIterator<TaskSpec> for TaskSet {
    /// Collects task specs into a freshly staggered set (ids reassigned,
    /// phases spread like [`TaskSetBuilder`]). To keep the originals'
    /// release phases — e.g. when sub-setting an existing set — use
    /// [`TaskSet::preserving_phases`] instead.
    fn from_iter<I: IntoIterator<Item = TaskSpec>>(iter: I) -> Self {
        let mut builder = TaskSetBuilder::new();
        for t in iter {
            builder = builder.add_task(t);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_resnet18_matches_paper() {
        let ts = TaskSet::table2(DnnKind::ResNet18);
        assert_eq!(ts.len(), 51);
        assert_eq!(ts.count(Priority::High), 17);
        assert_eq!(ts.count(Priority::Low), 34);
        // 51 × 30 = 1530 jobs/s ≈ 1.5 × 1025 (the upper baseline).
        let overload = ts.offered_jps() / 1025.0;
        assert!((overload - 1.5).abs() < 0.05, "{overload}");
    }

    #[test]
    fn table2_maintains_two_to_one_lp_ratio() {
        for kind in DnnKind::task_set_kinds() {
            let ts = TaskSet::table2(kind);
            assert_eq!(ts.count(Priority::Low), 2 * ts.count(Priority::High));
        }
    }

    #[test]
    #[should_panic(expected = "Table II does not define a ResNet50 task set")]
    fn table2_rejects_resnet50() {
        let _ = TaskSet::table2(DnnKind::ResNet50);
    }

    #[test]
    fn table2_scaled_multiplies_both_classes() {
        let base = TaskSet::table2(DnnKind::ResNet18);
        let scaled = TaskSet::table2_scaled(DnnKind::ResNet18, 4);
        assert_eq!(scaled.len(), 4 * base.len());
        assert_eq!(scaled.count(Priority::High), 4 * base.count(Priority::High));
        assert!((scaled.offered_jps() - 4.0 * base.offered_jps()).abs() < 1e-6);
        // Factor 0 clamps to 1.
        assert_eq!(TaskSet::table2_scaled(DnnKind::UNet, 0).len(), base_len_unet());
    }

    fn base_len_unet() -> usize {
        TaskSet::table2(DnnKind::UNet).len()
    }

    #[test]
    fn mixed_set_contains_all_three_models() {
        let ts = TaskSet::mixed();
        assert_eq!(ts.model_kinds().len(), 3);
        assert_eq!(ts.count(Priority::Low), 2 * ts.count(Priority::High));
    }

    #[test]
    fn phases_are_staggered_and_unique_ids() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let mut phases: Vec<_> = ts.tasks().iter().map(|t| t.phase).collect();
        phases.dedup();
        assert!(phases.len() > 1, "phases should not all be equal");
        for (i, t) in ts.tasks().iter().enumerate() {
            assert_eq!(t.id.index(), i);
            assert!(t.phase < t.period);
        }
    }

    #[test]
    fn ratio_scenarios_scale_offered_load() {
        let full = TaskSet::with_ratio(DnnKind::ResNet18, RatioScenario::FullLoad, 0.5);
        let over = TaskSet::with_ratio(DnnKind::ResNet18, RatioScenario::Overload, 0.5);
        assert!(over.offered_jps() > full.offered_jps() * 1.3);
        let hp_jps: f64 = full
            .tasks()
            .iter()
            .filter(|t| t.priority == Priority::High)
            .map(TaskSpec::jobs_per_second)
            .sum();
        let hp_share = hp_jps / full.offered_jps();
        assert!((hp_share - 0.5).abs() < 0.1, "{hp_share}");
        // Extreme shares clamp sanely.
        let all_hp = TaskSet::with_ratio(DnnKind::UNet, RatioScenario::Overload, 1.0);
        assert_eq!(all_hp.count(Priority::Low), 0);
    }

    #[test]
    fn resnet50_comparison_set_is_overloaded() {
        let ts = TaskSet::resnet50_comparison();
        assert!(ts.offered_jps() > 433.0, "{}", ts.offered_jps());
        assert!(ts.count(Priority::High) > 0 && ts.count(Priority::Low) > 0);
    }

    #[test]
    fn paper_batch_sizes_are_applied_per_model() {
        let ts = TaskSet::mixed().with_paper_batch_sizes();
        for t in ts.tasks() {
            assert_eq!(t.batch_size, t.model.paper_batch_size());
        }
    }

    #[test]
    fn adopt_reassigns_the_id_and_keeps_the_index_invariant() {
        let mut ts = TaskSet::table2(DnnKind::UNet);
        let n = ts.len();
        let foreign = TaskSet::table2(DnnKind::ResNet18).tasks()[0].clone();
        let id = ts.adopt(foreign);
        assert_eq!(id.index(), n);
        assert_eq!(ts.len(), n + 1);
        assert_eq!(ts.task(id).unwrap().model, DnnKind::ResNet18);
        for (i, t) in ts.tasks().iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
    }

    #[test]
    fn builder_from_iterator_reassigns_ids() {
        let base = TaskSet::table2(DnnKind::UNet);
        let subset: TaskSet = base.tasks().iter().take(4).cloned().collect();
        assert_eq!(subset.len(), 4);
        for (i, t) in subset.tasks().iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
    }

    #[test]
    fn preserving_phases_keeps_release_instants_while_collect_restaggers() {
        let base = TaskSet::table2(DnnKind::UNet);
        let picked: Vec<TaskSpec> = base.tasks().iter().skip(5).take(4).cloned().collect();
        let preserved = TaskSet::preserving_phases(picked.iter().cloned());
        for (position, (original, local)) in picked.iter().zip(preserved.tasks()).enumerate() {
            assert_eq!(local.id.index(), position, "ids are still reassigned to 0..n");
            assert_eq!(local.phase, original.phase, "phases must survive sub-setting");
            assert_eq!(local.job(3).release, original.job(3).release);
        }
        // The trait impl builds a *fresh* set: phases re-staggered locally.
        let collected: TaskSet = picked.iter().cloned().collect();
        assert_ne!(
            collected.tasks().iter().map(|t| t.phase).collect::<Vec<_>>(),
            picked.iter().map(|t| t.phase).collect::<Vec<_>>(),
        );
    }
}
