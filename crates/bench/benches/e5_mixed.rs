//! E5 — Section 4.5.3: mixed-query strategy latency across content
//! selectivity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use coupling::mixed::{execute_mixed, MixedStrategy};
use coupling::CollectionSetup;
use coupling_bench::workload::{build_corpus_system, with_para_collection, WorkloadConfig};
use oodb::{Database, Oid, Value};
use sgml::gen::topic_term;

fn year_pred(db: &Database, oid: Oid) -> bool {
    let ctx = db.method_ctx();
    let Ok(Value::Oid(doc)) =
        db.methods()
            .invoke(&ctx, "getContaining", oid, &[Value::from("MMFDOC")])
    else {
        return false;
    };
    matches!(db.get_attr(doc, "YEAR"), Ok(Value::Str(y)) if y == "1994")
}

fn bench(c: &mut Criterion) {
    let mut cs = build_corpus_system(&WorkloadConfig::small());
    with_para_collection(&mut cs, "coll", CollectionSetup::default());
    let query = topic_term(0);

    let mut group = c.benchmark_group("e5_mixed");
    for strategy in [MixedStrategy::Independent, MixedStrategy::IrsFirst] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let coll = cs.sys.collection("coll").expect("collection exists");
                    let db = coll.db();
                    let para = db.schema().class_id("PARA").expect("class exists");
                    let content = coll.get_irs_result(&query).expect("evaluates");
                    execute_mixed(db, para, &year_pred, &content, 0.45, strategy)
                        .0
                        .len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
