//! Scenario tests tracking the paper's worked examples and claims
//! through the public API only.

use coupling::architecture::{evaluate as arch_evaluate, ArchitectureKind};
use coupling::mixed::{evaluate_mixed, execute_mixed, MixedStrategy};
use coupling::ops;
use coupling::{CollectionSetup, DerivationScheme, DocumentSystem};
use oodb::{Database, Oid};

/// Build Figure 4's four documents with equal-length paragraphs; only
/// paragraphs are indexed.
fn figure4() -> (DocumentSystem, Vec<Oid>) {
    fn para(terms: &[&str]) -> String {
        let mut words: Vec<String> = (0..20).map(|i| format!("filler{i:02}")).collect();
        for (i, t) in terms.iter().enumerate() {
            words[3 + 5 * i] = (*t).to_string();
        }
        format!("<PARA>{}</PARA>", words.join(" "))
    }
    let mut sys = DocumentSystem::new();
    let bodies = [
        format!("{}{}{}", para(&["www"]), para(&["www"]), para(&[])),
        format!("{}{}{}", para(&["www", "nii"]), para(&[]), para(&[])),
        format!("{}{}", para(&["www"]), para(&["nii"])),
        format!("{}{}{}", para(&["nii"]), para(&["nii"]), para(&[])),
    ];
    let mut roots = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let doc = format!("<MMFDOC><DOCTITLE>M{}</DOCTITLE>{}</MMFDOC>", i + 1, body);
        roots.push(sys.load_sgml(&doc).unwrap().root);
    }
    sys.create_collection("collPara", CollectionSetup::default())
        .unwrap();
    sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
        .unwrap();
    (sys, roots)
}

#[test]
fn figure4_subquery_aware_ranking_through_query_language() {
    let (sys, roots) = figure4();
    sys.collection_mut("collPara")
        .unwrap()
        .set_derivation(DerivationScheme::SubqueryAware);
    // "Select all MMF documents which are relevant to 'WWW' and 'NII'" —
    // via the query language, ranking by derived value.
    let rows = sys
        .query("ACCESS d, d -> getIRSValue(collPara, '#and(www nii)') FROM d IN MMFDOC")
        .unwrap();
    let mut scored: Vec<(Oid, f64)> = rows
        .iter()
        .map(|r| (r.oid().unwrap(), r.col(1).as_f64().unwrap()))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    // M2 first (or tied with M3), M3 strictly above M4.
    let pos = |oid: Oid| scored.iter().position(|(o, _)| *o == oid).unwrap();
    assert!(pos(roots[1]) <= pos(roots[2]), "M2 at or above M3");
    assert!(pos(roots[2]) < pos(roots[3]), "M3 above M4");
}

#[test]
fn figure4_max_conflates_m3_and_m4() {
    let (sys, roots) = figure4();
    let values: Vec<f64> = {
        let mut coll = sys.collection_mut("collPara").unwrap();
        coll.set_derivation(DerivationScheme::Max);
        let ctx = coll.db().method_ctx();
        roots
            .iter()
            .map(|&r| coll.get_irs_value(&ctx, "#and(www nii)", r).unwrap())
            .collect()
    };
    assert!(values[1] > values[2], "M2 beats M3 under max");
    assert!(
        (values[2] - values[3]).abs() < 1e-9,
        "max cannot separate M3 ({}) from M4 ({})",
        values[2],
        values[3]
    );
}

#[test]
fn all_architectures_and_strategies_agree_end_to_end() {
    let sys = system_tests::two_issue_system();
    let structural = |db: &Database, oid: Oid| {
        let ctx = db.method_ctx();
        matches!(
            db.methods()
                .invoke(&ctx, "getContaining", oid, &[oodb::Value::from("MMFDOC")]),
            Ok(oodb::Value::Oid(_))
        )
    };
    let mut all_results: Vec<Vec<Oid>> = Vec::new();
    {
        let mut coll = sys.collection_mut("collPara").unwrap();
        let db = coll.db();
        for kind in [
            ArchitectureKind::DbmsControl,
            ArchitectureKind::ControlModule,
            ArchitectureKind::IrsControl,
        ] {
            let out = arch_evaluate(kind, db, &mut coll, "PARA", &structural, "www", 0.45).unwrap();
            all_results.push(out.oids);
        }
        // Both §4.5.3 orders, forced, then the optimizer's own pick.
        let para = db.schema().class_id("PARA").unwrap();
        let content = coll.get_irs_result("www").unwrap();
        for strategy in [MixedStrategy::Independent, MixedStrategy::IrsFirst] {
            let (oids, _) = execute_mixed(db, para, &structural, &content, 0.45, strategy);
            all_results.push(oids);
            let out =
                evaluate_mixed(db, &coll, "PARA", &structural, "www", 0.45, strategy).unwrap();
            all_results.push(out.oids);
        }
    }
    for w in all_results.windows(2) {
        assert_eq!(w[0], w[1], "every evaluation path returns the same objects");
    }
    assert!(!all_results[0].is_empty());
}

#[test]
fn oodbms_operator_methods_match_irs_for_all_operators() {
    let sys = system_tests::two_issue_system();
    {
        let coll = sys.collection("collPara").unwrap();
        let www = coll.get_irs_result("www").unwrap();
        let nii = coll.get_irs_result("nii").unwrap();
        let cases: Vec<(&str, coupling::buffer::ResultMap)> = vec![
            ("#and(www nii)", ops::irs_and(&[&www, &nii])),
            ("#or(www nii)", ops::irs_or(&[&www, &nii])),
            ("#sum(www nii)", ops::irs_sum(&[&www, &nii])),
            ("#max(www nii)", ops::irs_max(&[&www, &nii])),
            (
                "#wsum(2 www 1 nii)",
                ops::irs_wsum(&[2.0, 1.0], &[&www, &nii]),
            ),
        ];
        for (query, oodbms_side) in cases {
            let irs_side = coll.get_irs_result(query).unwrap();
            for (oid, v) in &irs_side {
                let c = oodbms_side.get(oid).copied().unwrap_or(0.0);
                assert!((c - v).abs() < 1e-9, "{query}: {oid} IRS {v} vs OODBMS {c}");
            }
        }
    }
}

#[test]
fn overlapping_collections_stay_independent() {
    let mut sys = system_tests::two_issue_system();
    // A second, overlapping collection over 1994 paragraphs only.
    sys.create_collection("coll94", CollectionSetup::default())
        .unwrap();
    sys.index_collection(
        "coll94",
        "ACCESS p FROM p IN PARA, d IN MMFDOC WHERE \
         p -> getContaining('MMFDOC') == d AND d -> getAttributeValue('YEAR') = '1994'",
    )
    .unwrap();
    let n_all = sys.collection("collPara").unwrap().len();
    let n_94 = sys.collection("coll94").unwrap().len();
    assert_eq!(n_all, 4);
    assert_eq!(n_94, 2);
    // Same object, different collection statistics are possible: the
    // 1995 paragraphs simply are not in coll94.
    let www_all = sys
        .collection("collPara")
        .unwrap()
        .get_irs_result("www")
        .unwrap()
        .len();
    let www_94 = sys
        .collection("coll94")
        .unwrap()
        .get_irs_result("www")
        .unwrap()
        .len();
    assert_eq!(www_all, 2);
    assert_eq!(www_94, 0);
}

#[test]
fn negation_semantics_differ_between_worlds() {
    // Paper Section 6: "Negation, for example, has a different meaning in
    // both worlds." Structural NOT (closed world) excludes anything not
    // provably matching; IRS #not (open world, inference network) merely
    // lowers belief — a document weakly mentioning the term still gets a
    // nonzero complement belief.
    let sys = system_tests::two_issue_system();

    // Closed world: the OODBMS's NOT gives a crisp complement set.
    let all = sys.query("ACCESS p FROM p IN PARA").unwrap().len();
    let with_www = sys
        .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'www') > 0.45")
        .unwrap()
        .len();
    let without_www = sys
        .query("ACCESS p FROM p IN PARA WHERE NOT p -> getIRSValue(collPara, 'www') > 0.45")
        .unwrap()
        .len();
    assert_eq!(
        with_www + without_www,
        all,
        "closed-world NOT partitions the extent"
    );

    // Open world: the IRS's #not assigns graded complements — paragraphs
    // containing www get low-but-positive beliefs, the rest sit at the
    // complement of the default belief.
    let complement = sys
        .collection("collPara")
        .unwrap()
        .get_irs_result("#not(www)")
        .unwrap();
    assert_eq!(complement.len(), 4, "every live paragraph gets a belief");
    let values: Vec<f64> = complement.values().copied().collect();
    assert!(values.iter().all(|v| (0.0..=1.0).contains(v)));
    assert!(
        values.iter().any(|&v| v > 0.0 && v < 1.0),
        "open-world negation is graded, not crisp: {values:?}"
    );
}

#[test]
fn multimedia_retrieval_via_captions() {
    // Paper Section 5: "A practicable approach to facilitate information
    // retrieval from images … is having the text fragments as IRS
    // documents that reference the image" — here, figure captions.
    let mut sys = DocumentSystem::new();
    sys.load_sgml(
        "<MMFDOC><DOCTITLE>Atlas</DOCTITLE>\
         <FIGURE SRC=\"map1.gif\"><CAPTION>network topology of the early internet</CAPTION></FIGURE>\
         <FIGURE SRC=\"map2.gif\"><CAPTION>growth of www servers by year</CAPTION></FIGURE>\
         <PARA>body text about unrelated matters</PARA></MMFDOC>",
    )
    .unwrap();
    sys.create_collection("figures", CollectionSetup::default())
        .unwrap();
    // Specification query selects the image objects; getText(FullSubtree)
    // surfaces their caption text.
    let n = sys
        .index_collection("figures", "ACCESS f FROM f IN FIGURE")
        .unwrap();
    assert_eq!(n, 2);
    let rows = sys
        .query(
            "ACCESS f -> getAttributeValue('SRC') FROM f IN FIGURE \
             WHERE f -> getIRSValue(figures, 'topology') > 0.4",
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].col(0).as_str().unwrap(), "map1.gif");
}

#[test]
fn top_k_ranking_via_order_by_derived_value() {
    // ORDER BY + LIMIT over derived IRS values: the "top documents"
    // interaction every digital library needs.
    let (sys, roots) = figure4();
    sys.collection_mut("collPara")
        .unwrap()
        .set_derivation(DerivationScheme::SubqueryAware);
    let rows = sys
        .query(
            "ACCESS d FROM d IN MMFDOC \
             ORDER BY d -> getIRSValue(collPara, '#and(www nii)') DESC LIMIT 2",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    let top: Vec<Oid> = rows.iter().map(|r| r.oid().unwrap()).collect();
    assert!(top.contains(&roots[1]), "M2 in the top 2");
    assert!(top.contains(&roots[2]), "M3 recovered into the top 2");
}

#[test]
fn specification_query_can_use_any_predicate() {
    // "The specification query is an OODBMS query expression and thus is
    // powerful enough to specify any reasonable combination of objects."
    let mut sys = system_tests::two_issue_system();
    sys.create_collection("longParas", CollectionSetup::default())
        .unwrap();
    let n = sys
        .index_collection(
            "longParas",
            "ACCESS p FROM p IN PARA WHERE p -> length() > 45",
        )
        .unwrap();
    let total = sys.collection("collPara").unwrap().len();
    assert!(
        n >= 1 && n < total,
        "length predicate filtered some paragraphs ({n}/{total})"
    );
}
