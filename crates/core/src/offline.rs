//! Offline phase: initial context population (Algorithm 1).

use daris_workload::{Priority, TaskSpec};

/// Assigns every task to a context, balancing total utilization across
/// contexts (Algorithm 1 of the paper).
///
/// High-priority tasks are placed first (they keep fixed contexts during the
/// online phase); low-priority tasks are then distributed to balance the
/// residual load. Each task goes to the context with the lowest accumulated
/// utilization at the time of its placement.
///
/// `utilization(task)` supplies `u_i(0)` — in the paper this is the AFET-based
/// estimate (Eq. 10).
///
/// Returns a vector of context indices parallel to `tasks`.
///
/// ```
/// use daris_core::populate_contexts;
/// use daris_workload::TaskSet;
/// use daris_models::DnnKind;
///
/// let ts = TaskSet::table2(DnnKind::UNet);
/// let assignment = populate_contexts(ts.tasks(), 3, |_| 0.25);
/// assert_eq!(assignment.len(), ts.len());
/// assert!(assignment.iter().all(|&c| c < 3));
/// ```
pub fn populate_contexts<F>(tasks: &[TaskSpec], n_contexts: usize, utilization: F) -> Vec<usize>
where
    F: Fn(&TaskSpec) -> f64,
{
    let n_contexts = n_contexts.max(1);
    let mut context_util = vec![0.0f64; n_contexts];
    let mut assignment = vec![0usize; tasks.len()];

    let place = |order: &[usize], context_util: &mut Vec<f64>, assignment: &mut Vec<usize>| {
        for &idx in order {
            let task = &tasks[idx];
            let util = utilization(task);
            // minUtil(pool): the least-loaded context.
            let (ctx, _) = context_util
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one context");
            assignment[idx] = ctx;
            context_util[ctx] += util;
        }
    };

    // Lines 3–7: high-priority tasks first.
    let hp_order: Vec<usize> = tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.priority == Priority::High)
        .map(|(i, _)| i)
        .collect();
    place(&hp_order, &mut context_util, &mut assignment);

    // Lines 8–12: low-priority tasks.
    let lp_order: Vec<usize> = tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.priority == Priority::Low)
        .map(|(i, _)| i)
        .collect();
    place(&lp_order, &mut context_util, &mut assignment);

    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_models::DnnKind;
    use daris_workload::TaskSet;

    #[test]
    fn every_task_gets_a_context_in_range() {
        let ts = TaskSet::table2(DnnKind::ResNet18);
        let assignment = populate_contexts(ts.tasks(), 6, |_| 0.1);
        assert_eq!(assignment.len(), ts.len());
        assert!(assignment.iter().all(|&c| c < 6));
    }

    #[test]
    fn load_is_balanced_for_uniform_tasks() {
        let ts = TaskSet::table2(DnnKind::ResNet18);
        let assignment = populate_contexts(ts.tasks(), 6, |_| 0.1);
        let mut counts = vec![0usize; 6];
        for &c in &assignment {
            counts[c] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 1, "uniform tasks should spread evenly: {counts:?}");
    }

    #[test]
    fn hp_tasks_are_spread_before_lp_tasks() {
        let ts = TaskSet::table2(DnnKind::InceptionV3);
        // 9 HP tasks on 3 contexts must land 3 per context regardless of the
        // 18 LP tasks placed afterwards.
        let assignment = populate_contexts(ts.tasks(), 3, |_| 0.2);
        let mut hp_counts = vec![0usize; 3];
        for (i, t) in ts.tasks().iter().enumerate() {
            if t.priority == Priority::High {
                hp_counts[assignment[i]] += 1;
            }
        }
        assert_eq!(hp_counts, vec![3, 3, 3]);
    }

    #[test]
    fn heavier_tasks_balance_by_utilization_not_count() {
        let ts = TaskSet::mixed();
        // UNet tasks are ~4x heavier than ResNet18 tasks here.
        let util = |t: &TaskSpec| match t.model {
            DnnKind::UNet => 0.4,
            _ => 0.1,
        };
        let assignment = populate_contexts(ts.tasks(), 4, util);
        let mut per_ctx_util = vec![0.0; 4];
        for (i, t) in ts.tasks().iter().enumerate() {
            per_ctx_util[assignment[i]] += util(t);
        }
        let min = per_ctx_util.iter().cloned().fold(f64::MAX, f64::min);
        let max = per_ctx_util.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min < 0.45, "utilization imbalance too high: {per_ctx_util:?}");
    }

    #[test]
    fn single_context_degenerates_gracefully() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let assignment = populate_contexts(ts.tasks(), 0, |_| 0.1);
        assert!(assignment.iter().all(|&c| c == 0));
    }
}
